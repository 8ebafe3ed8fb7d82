(* Ring-valued aggregates, GROUP BY maintenance and view towers.

   Four layers of teeth: QCheck laws for every payload ring instance
   (associativity, identity, inverse exactly where the instance claims
   one), grouped-delta maintenance checked against a from-scratch
   recompute over hundreds of generated commit streams, a pinned
   regression for the MIN/MAX drain-to-zero rescan rule, and a worked
   views-over-views example asserting each parent delta is consumed
   exactly once per dependent. *)

open Relalg
module Expr = Query.Expr
module Aggregate = Query.Aggregate
module View = Ivm.View
module Grouped = Ivm.Grouped
module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module Rng = Workload.Rng
module Generate = Workload.Generate
open Condition.Formula.Dsl

let quick name f = Alcotest.test_case name `Quick f

let property name ?(count = 100) gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen law)

let agg func output = { Aggregate.func; output }

(* Sorted integer contents, for readable assertions. *)
let int_contents r =
  List.map
    (fun (t, c) ->
      ( List.map
          (function
            | Value.Int n -> n
            | other ->
              Alcotest.failf "non-int payload %s"
                (Format.asprintf "%a" Value.pp other))
          (Array.to_list t),
        c ))
    (Relation.sorted_elements r)

(* ------------------------------------------------------------------ *)
(* Ring laws                                                           *)
(* ------------------------------------------------------------------ *)

(* One law suite per instance, over an instance-supplied generator.
   [neg] is tested exactly when the instance claims an inverse — the
   MIN/MAX monoids must keep claiming [None], so that asymmetry is
   itself pinned by [claims_inverse]. *)
let ring_laws (type a) (module R : Ring.S with type t = a) arb =
  let ( =~ ) = R.equal in
  [
    property
      (Printf.sprintf "%s: add is associative and commutative" R.name)
      QCheck.(triple arb arb arb)
      (fun (x, y, z) ->
        R.add (R.add x y) z =~ R.add x (R.add y z) && R.add x y =~ R.add y x);
    property
      (Printf.sprintf "%s: zero is the additive identity" R.name)
      arb
      (fun x -> R.add x R.zero =~ x && R.add R.zero x =~ x);
    property
      (Printf.sprintf "%s: mul is associative with identity one" R.name)
      QCheck.(triple arb arb arb)
      (fun (x, y, z) ->
        R.mul (R.mul x y) z =~ R.mul x (R.mul y z)
        && R.mul x R.one =~ x && R.mul R.one x =~ x);
    property
      (Printf.sprintf "%s: is_zero agrees with equal zero" R.name)
      arb
      (fun x -> R.is_zero x = (x =~ R.zero));
    property
      (Printf.sprintf "%s: inverse law holds where claimed" R.name)
      arb
      (fun x ->
        match R.neg with
        | Some neg -> R.is_zero (R.add x (neg x))
        | None ->
          (* Idempotent monoids: add must be idempotent instead. *)
          R.add x x =~ x);
  ]

let value_opt_gen =
  QCheck.(
    map
      (fun n -> if n mod 7 = 0 then None else Some (Value.Int (n / 7)))
      (int_range (-700) 700))

let claims_inverse =
  quick "neg claimed by Count/Sum/Avg and refused by Min/Max" (fun () ->
      Alcotest.(check bool) "Count" true (Option.is_some Ring.Count.neg);
      Alcotest.(check bool) "Sum" true (Option.is_some Ring.Sum.neg);
      Alcotest.(check bool) "Avg" true (Option.is_some Ring.Avg.neg);
      Alcotest.(check bool) "Min" false (Option.is_some Ring.Min.neg);
      Alcotest.(check bool) "Max" false (Option.is_some Ring.Max.neg))

let ring_tests =
  ring_laws (module Ring.Count) QCheck.(int_range (-1000) 1000)
  @ ring_laws (module Ring.Sum) QCheck.(int_range (-1000) 1000)
  @ ring_laws
      (module Ring.Avg)
      QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
  @ ring_laws (module Ring.Min) value_opt_gen
  @ ring_laws (module Ring.Max) value_opt_gen
  @ [ claims_inverse ]

(* ------------------------------------------------------------------ *)
(* Grouped delta = full recompute, over generated commit streams       *)
(* ------------------------------------------------------------------ *)

let grouped_exprs =
  [|
    Expr.(
      group_by ~keys:[ "B" ]
        [ agg Aggregate.Count "cnt"; agg (Aggregate.Sum "A") "sum_a" ]
        (base "R"));
    Expr.(
      group_by ~keys:[]
        [
          agg Aggregate.Count "cnt";
          agg (Aggregate.Min "A") "min_a";
          agg (Aggregate.Max "A") "max_a";
        ]
        (base "R"));
    Expr.(
      group_by ~keys:[ "B" ]
        [ agg (Aggregate.Avg "A") "avg_a"; agg (Aggregate.Min "A") "min_a" ]
        (select (v "A" <% i 250) (base "R")));
    Expr.(
      group_by ~keys:[ "C" ]
        [ agg Aggregate.Count "cnt"; agg (Aggregate.Sum "A") "sum_a" ]
        (join (base "R") (base "S")));
  |]

let family rng =
  let db = Database.create () in
  let r_cols = [ Generate.Uniform (0, 400); Generate.Uniform (0, 5) ] in
  let s_cols = [ Generate.Uniform (0, 5); Generate.Uniform (0, 12) ] in
  Database.register db "R"
    (Generate.relation rng
       (Helpers.int_schema [ "A"; "B" ])
       r_cols
       (Rng.range rng ~lo:4 ~hi:24));
  Database.register db "S"
    (Generate.relation rng
       (Helpers.int_schema [ "B"; "C" ])
       s_cols
       (Rng.range rng ~lo:4 ~hi:24));
  let specs =
    [ ("R", r_cols, Rng.int rng 4, Rng.int rng 4);
      ("S", s_cols, Rng.int rng 4, Rng.int rng 4) ]
  in
  (db, specs)

(* One stream: a manager maintaining every grouped template
   incrementally, checked after every commit against [Query.Eval.eval]
   from the live base state — zero shared code with the delta path. *)
let grouped_delta_equals_recompute seed =
  let rng = Rng.make seed in
  let db, specs = family rng in
  let mgr = Manager.create ~domains:(1 + Rng.int rng 3) db in
  let strategies =
    [| Maintenance.Differential; Maintenance.Adaptive; Maintenance.Recompute |]
  in
  Array.iteri
    (fun k expr ->
      ignore
        (Manager.define_view mgr
           ~name:(Printf.sprintf "g%d" k)
           ~force:true
           ~options:
             {
               Maintenance.default_options with
               strategy = strategies.(k mod Array.length strategies);
               screen = Rng.chance rng 0.5;
             }
           expr))
    grouped_exprs;
  let ok = ref true in
  for _ = 1 to 5 do
    let txn = Generate.mixed_transaction rng db specs in
    ignore (Manager.commit mgr txn);
    Array.iteri
      (fun k expr ->
        let got = View.contents (Manager.view mgr (Printf.sprintf "g%d" k)) in
        let want = Query.Eval.eval db expr in
        if not (Relation.equal got want) then ok := false)
      grouped_exprs
  done;
  !ok && Manager.all_consistent mgr

(* ------------------------------------------------------------------ *)
(* MIN/MAX drain-to-zero rescan                                        *)
(* ------------------------------------------------------------------ *)

(* pi[A](R) gives the extremum multiplicity > 1: deleting one supporting
   base tuple must NOT rescan (support 2 -> 1), deleting the second must
   (support 1 -> 0), and the rescan must land on the new extremum. *)
let rescan_regression () =
  let db =
    Helpers.db_of [ ("R", Helpers.rel [ "A"; "B" ] [ [ 5; 1 ]; [ 5; 2 ]; [ 9; 3 ] ]) ]
  in
  let mgr = Manager.create db in
  ignore
    (Manager.define_view mgr ~name:"m" ~force:true
       Expr.(
         group_by ~keys:[]
           [ agg (Aggregate.Min "A") "min_a" ]
           (project [ "A" ] (base "R"))));
  let min_of () = int_contents (View.contents (Manager.view mgr "m")) in
  Alcotest.(check (list (pair (list int) int)))
    "initial minimum" [ ([ 5 ], 1) ] (min_of ());
  let rescans_of reports =
    List.fold_left (fun acc r -> acc + r.Maintenance.rescans) 0 reports
  in
  let r1 =
    Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 5; 1 ]) ]
  in
  Alcotest.(check int) "support 2 -> 1: no rescan" 0 (rescans_of r1);
  Alcotest.(check (list (pair (list int) int)))
    "minimum unchanged while supported" [ ([ 5 ], 1) ] (min_of ());
  let r2 =
    Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 5; 2 ]) ]
  in
  Alcotest.(check int) "support 1 -> 0: exactly one rescan" 1 (rescans_of r2);
  Alcotest.(check (list (pair (list int) int)))
    "rescan finds the next extremum" [ ([ 9 ], 1) ] (min_of ());
  let r3 =
    Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 9; 3 ]) ]
  in
  ignore (rescans_of r3);
  Alcotest.(check (list (pair (list int) int)))
    "empty group emits no row, even keyless" [] (min_of ());
  Alcotest.(check bool) "still consistent" true (Manager.all_consistent mgr)

(* ------------------------------------------------------------------ *)
(* Views over views                                                    *)
(* ------------------------------------------------------------------ *)

(* Two dependents over one parent: if the parent's committed delta were
   consumed zero times the children would be stale, twice and the
   counted contents would double — so exact contents after each commit
   pin "exactly once per dependent".  The COUNT child additionally pins
   multiplicity handling: parent deltas are counted relations, and a
   dropped or doubled count changes cnt. *)
let tower_worked_example () =
  let db =
    Helpers.db_of
      [ ("R", Helpers.rel [ "A"; "B" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 7; 20 ] ]) ]
  in
  let mgr = Manager.create db in
  ignore
    (Manager.define_view mgr ~name:"p" ~force:true
       Expr.(select (v "A" <% i 100) (base "R")));
  ignore
    (Manager.define_view mgr ~name:"c_count" ~force:true
       Expr.(group_by ~keys:[ "B" ] [ agg Aggregate.Count "cnt" ] (base "p")));
  ignore
    (Manager.define_view mgr ~name:"c_proj" ~force:true
       Expr.(project [ "B" ] (base "p")));
  ignore
    (Manager.define_view mgr ~name:"grandchild" ~force:true
       Expr.(select (v "cnt" >% i 1) (base "c_count")));
  let check_counts name expected =
    Alcotest.(check (list (pair (list int) int)))
      name expected
      (int_contents (View.contents (Manager.view mgr name)))
  in
  check_counts "c_count" [ ([ 10; 2 ], 1); ([ 20; 1 ], 1) ];
  check_counts "c_proj" [ ([ 10 ], 2); ([ 20 ], 1) ];
  check_counts "grandchild" [ ([ 10; 2 ], 1) ];
  let reports =
    Manager.commit mgr
      [
        Transaction.insert "R" (Tuple.of_ints [ 3; 10 ]);
        Transaction.insert "R" (Tuple.of_ints [ 8; 20 ]);
        Transaction.delete "R" (Tuple.of_ints [ 1; 10 ]);
      ]
  in
  (* Every view was maintained exactly once this commit. *)
  let names = List.map (fun r -> r.Maintenance.view_name) reports in
  Alcotest.(check (list string))
    "one report per view, parents before children"
    [ "p"; "c_count"; "c_proj"; "grandchild" ]
    names;
  check_counts "c_count" [ ([ 10; 2 ], 1); ([ 20; 2 ], 1) ];
  check_counts "c_proj" [ ([ 10 ], 2); ([ 20 ], 2) ];
  check_counts "grandchild" [ ([ 10; 2 ], 1); ([ 20; 2 ], 1) ];
  Alcotest.(check bool) "tower consistent" true (Manager.all_consistent mgr);
  (* A second commit that only touches one group: the other group's row
     must be left alone (delta, not recompute, reaches the children). *)
  let reports2 =
    Manager.commit mgr [ Transaction.delete "R" (Tuple.of_ints [ 8; 20 ]) ]
  in
  check_counts "c_count" [ ([ 10; 2 ], 1); ([ 20; 1 ], 1) ];
  check_counts "grandchild" [ ([ 10; 2 ], 1) ];
  let c_count_report =
    List.find (fun r -> r.Maintenance.view_name = "c_count") reports2
  in
  Alcotest.(check int)
    "one group touched" 1 c_count_report.Maintenance.groups_touched

let deferred_parent_rejected () =
  let db = Helpers.db_of [ ("R", Helpers.rel [ "A"; "B" ] [ [ 1; 2 ] ]) ] in
  let mgr = Manager.create db in
  ignore
    (Manager.define_view mgr ~name:"p" ~force:true Expr.(base "R"));
  Alcotest.check_raises "dependent views cannot be Deferred"
    (Invalid_argument
       "Manager.define_view: \"c\" reads views (p) and cannot be Deferred — \
        parent deltas flow only through immediate commits")
    (fun () ->
      ignore
        (Manager.define_view mgr ~name:"c" ~mode:Manager.Deferred ~force:true
           Expr.(project [ "A" ] (base "p"))))

let tower_tests =
  [
    quick "worked example: parent delta consumed exactly once per dependent"
      tower_worked_example;
    quick "deferred dependents are rejected" deferred_parent_rejected;
  ]

let () =
  Alcotest.run "aggregate"
    [
      ("ring laws", ring_tests);
      ( "grouped maintenance",
        [
          property ~count:200 "grouped delta = full recompute (200 streams)"
            QCheck.(int_range 0 1_000_000)
            grouped_delta_equals_recompute;
          quick "MIN drain-to-zero forces exactly one rescan" rescan_regression;
        ] );
      ("view towers", tower_tests);
    ]
