(* The benchmark's own checks: its inputs are a function of the seed, and
   the metrics it can print are exactly the ones BENCHMARK.json declares. *)

open Relalg
module W = Commitbench.Workloads
module Names = Commitbench.Metric_names

let stream_length = 100

(* The scenario built from [db_seed] and the first [stream_length]
   transactions of the stream seeded with [seed]. *)
let inputs ?db_seed (w : W.t) seed =
  let sc = w.W.build (Workload.Rng.make (Option.value db_seed ~default:seed)) in
  let db = sc.Workload.Scenario.db in
  let relations =
    List.map
      (fun name -> (name, Relation.sorted_elements (Database.find db name)))
      (Database.names db)
  in
  (relations, W.block (W.stream w ~seed sc) stream_length)

let seeded_stream (w : W.t) () =
  let relations, txns = inputs w 1 in
  let relations', txns' = inputs w 1 in
  Alcotest.(check bool) "same seed, same database" true (relations = relations');
  Alcotest.(check bool) "same seed, same stream" true (txns = txns');
  let _, other = inputs w 2 in
  Alcotest.(check bool) "other seed, other stream" false (txns = other);
  let _, other_stream = inputs ~db_seed:1 w 2 in
  Alcotest.(check bool)
    "same database, other stream seed, other stream" false (txns = other_stream);
  Alcotest.(check bool)
    "every transaction updates something" true
    (List.for_all (fun t -> t <> []) txns)

(* The stream is generated against a shadow copy: replaying it on the
   real database must never hit an invalid insert or delete. *)
let stream_is_valid (w : W.t) () =
  let sc = w.W.build (Workload.Rng.make 3) in
  let db = sc.Workload.Scenario.db in
  List.iter
    (fun txn -> Transaction.apply db (Transaction.net_effect db txn))
    (W.block (W.stream w ~seed:3 sc) stream_length)

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse text with
  | Ok json -> json
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let field key json =
  match Obs.Json.member key json with
  | Some v -> v
  | None -> Alcotest.failf "BENCHMARK.json: missing %S" key

let str = function Obs.Json.Str s -> s | _ -> Alcotest.fail "expected a string"
let list = function Obs.Json.List l -> l | _ -> Alcotest.fail "expected a list"

let declared section =
  List.map
    (fun m -> (str (field "name" m), str (field "unit" m)))
    (list (field section (benchmark_json ())))
  |> List.sort compare

let metrics_declared () =
  let sorted = List.sort compare in
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics" (declared "end_to_end") (sorted Names.end_to_end);
  Alcotest.(check (list (pair string string)))
    "per-layer metrics" (declared "per_layer") (sorted Names.per_layer);
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> str (field "name" w)) (list (field "workloads" (benchmark_json ()))))
    (List.map (fun (w : W.t) -> w.W.name) W.all)

let () =
  Alcotest.run "commitbench"
    [
      ( "inputs",
        List.concat_map
          (fun (w : W.t) ->
            [
              Alcotest.test_case (w.W.name ^ " seeded") `Quick (seeded_stream w);
              Alcotest.test_case (w.W.name ^ " valid") `Quick (stream_is_valid w);
            ])
          W.all );
      ("metrics", [ Alcotest.test_case "declared in BENCHMARK.json" `Quick metrics_declared ]);
    ]
