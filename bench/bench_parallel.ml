(* E18: multicore scaling of the maintenance engine.

   Eight independent select/join views over customers ⋈ orders are
   replayed through managers configured with 1, 2, 4 and 8 domains.
   Views are data-independent (Manager.commit fans them out over the
   lib/exec pool), so the curve measures how far commit throughput
   scales with view-level parallelism, the only parallel axis the
   engine has.

   The seed fixes scenario and stream, so every domain count processes
   identical work.  [scaling_json] re-runs a smaller version of the
   sweep and serializes the curve into the BENCH_IVM.json snapshot. *)

module Maintenance = Ivm.Maintenance
module Manager = Ivm.Manager
module Generate = Workload.Generate
module Scenario = Workload.Scenario
module Rng = Workload.Rng

let view_count = 8
let domain_counts = [ 1; 2; 4; 8 ]

let define_dashboard_views mgr =
  let open Condition.Formula.Dsl in
  let regions = [| "north"; "south"; "east"; "west" |] in
  for k = 0 to view_count - 1 do
    let region = regions.(k mod Array.length regions) in
    let threshold = 400 + (50 * k) in
    ignore
      (Manager.define_view mgr
         ~name:(Printf.sprintf "dash%d" k)
         Query.Expr.(
           project
             [ "oid"; "cid"; "amount" ]
             (select
                ((v "amount" >% i threshold) &&% (v "region" =% s region))
                (join (base "orders") (base "customers")))))
  done

(* One full E18 replay: build the scenario, define the eight views,
   drive the transaction stream, return elapsed seconds of the commit
   loop. *)
let run_per_view ~domains ~orders ~transactions ~batch seed =
  let rng = Rng.make seed in
  let sc = Scenario.orders ~rng ~customers:300 ~orders in
  let db = sc.Scenario.db in
  let mgr = Manager.create ~domains db in
  define_dashboard_views mgr;
  let columns = Scenario.columns_of sc "orders" in
  Bench_util.time_once (fun () ->
      for _ = 1 to transactions do
        let txn =
          Generate.transaction rng db "orders" ~columns
            ~inserts:(batch / 2)
            ~deletes:(batch - (batch / 2))
        in
        ignore (Manager.commit mgr txn)
      done)

let curve run = List.map (fun domains -> (domains, run ~domains)) domain_counts

let speedup_at ~base results domains =
  match List.assoc_opt domains results with
  | Some t when t > 0.0 -> base /. t
  | Some _ | None -> 0.0

let scenario_json ~scenario ~views ~transactions ~batch results =
  let base = List.assoc 1 results in
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.Str scenario);
      ("views", Obs.Json.Int views);
      ("transactions", Obs.Json.Int transactions);
      ("batch", Obs.Json.Int batch);
      ( "curve",
        Obs.Json.List
          (List.map
             (fun (domains, elapsed) ->
               Obs.Json.Obj
                 [
                   ("domains", Obs.Json.Int domains);
                   ("elapsed_ns", Obs.Json.Int (int_of_float (elapsed *. 1e9)));
                   ( "commits_per_sec",
                     Obs.Json.Float (float_of_int transactions /. elapsed) );
                   ("speedup", Obs.Json.Float (base /. elapsed));
                 ])
             results) );
      ("speedup_at_2", Obs.Json.Float (speedup_at ~base results 2));
      ("speedup_at_4", Obs.Json.Float (speedup_at ~base results 4));
      ("speedup_at_8", Obs.Json.Float (speedup_at ~base results 8));
    ]

let scaling_json () =
  let pv_transactions = 30 and pv_batch = 16 in
  let per_view =
    curve (fun ~domains ->
        run_per_view ~domains ~orders:4_000 ~transactions:pv_transactions
          ~batch:pv_batch 7_700)
  in
  Obs.Json.Obj
    [
      ("experiment", Obs.Json.Str "E18");
      ("cores_available", Obs.Json.Int (Domain.recommended_domain_count ()));
      ( "per_view",
        scenario_json ~scenario:"orders" ~views:view_count
          ~transactions:pv_transactions ~batch:pv_batch per_view );
    ]

let print_curve ~transactions results =
  let base = List.assoc 1 results in
  Bench_util.print_table
    ~header:[ "domains"; "elapsed"; "commits/s"; "speedup" ]
    (List.map
       (fun (domains, elapsed) ->
         [
           string_of_int domains;
           Bench_util.fmt_time elapsed;
           Printf.sprintf "%.1f" (float_of_int transactions /. elapsed);
           Bench_util.fmt_speedup (base /. elapsed);
         ])
       results)

let run () =
  Bench_util.section "E18: domain-pool scaling (per-view fan-out)";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "cores available: %d (Domain.recommended_domain_count)\n" cores;
  let max_domains = List.fold_left max 1 domain_counts in
  if cores < max_domains then
    Printf.printf
      "note: only %d hardware core(s) for up to %d domains — speedups at \
       oversubscribed domain counts are not credible on this machine and \
       are recorded, not gated.\n"
      cores max_domains;
  let transactions = 60 and batch = 16 in
  Bench_util.banner
    (Printf.sprintf
       "E18 per-view: commit throughput, %d txns x %d views, batch %d"
       transactions view_count batch);
  print_curve ~transactions
    (curve (fun ~domains ->
         run_per_view ~domains ~orders:6_000 ~transactions ~batch 7_700));
  Printf.printf
    "\nViews are maintained as independent pool tasks, so the curve tops\n\
     out at min(views, domains); a single view is maintained on one\n\
     domain.  With a single hardware core the curve stays flat and the\n\
     extra domains only add scheduling overhead — the engine falls back\n\
     to inline execution at domains=1.\n"
