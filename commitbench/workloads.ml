(* The three benchmark workloads: scenario, views and transaction stream.

   Each workload is a single client committing one transaction at a time
   (a closed loop).  Sizes, the flush policy and the checkpoint cadence
   are documented in README.md; keep the two in step. *)

open Relalg
module Maintenance = Ivm.Maintenance
module Scenario = Workload.Scenario
module Rng = Workload.Rng

(* Flush policy and checkpoint cadence, shared by every workload.  The
   cadence is a multiple of the dashboard's customer-update period and the
   chain's bulk period, so every checkpoint lands on the same kind of
   commit and the p99 falls inside one class of commits instead of on the
   edge between two.  The end-of-loop alignment leaves [tail_records]
   records in the WAL after the last checkpoint, so recovery always
   replays a tail. *)
let fsync_every = 64
let checkpoint_every = 60
let tail_records = 30

type view = {
  view_name : string;
  expr : Query.Expr.t;
  tower : bool;  (** defined over another view *)
}

type t = {
  name : string;
  domains : int;
  build : Rng.t -> Scenario.t;
  empty : unit -> Database.t;
      (** the relations with no rows: what a restarted process starts from *)
  views : view list;
  keyed : (string * int) list;
      (** relations whose shadow keeps a per-key index, with the column *)
  next : Rng.t -> (string -> Shadow.rel) -> int -> Transaction.t;
      (** the [i]-th transaction (0-based) against the shadow state *)
}

let adaptive = { Maintenance.default_options with strategy = Maintenance.Adaptive }
let base_view view_name expr = { view_name; expr; tower = false }

let agg func output = { Query.Aggregate.func; output }

(* A copy of a scenario's relations with their schemas and no rows. *)
let empty_like (sc : Scenario.t) =
  let db = Database.create () in
  List.iter
    (fun name ->
      Database.register db name
        (Relation.create (Relation.schema (Database.find sc.Scenario.db name))))
    (Database.names sc.Scenario.db);
  db

let empty_orders () =
  empty_like (Scenario.orders ~rng:(Rng.make 0) ~customers:1 ~orders:1)

(* --- dashboard-oltp ---------------------------------------------------- *)

let dashboard_orders = 10_000
let dashboard_customers = 250
let dashboard_batch = 64
let customer_update_every = 10

(* Selective SPJ views: the Theorem 4.1 screen drops most update tuples,
   so per-commit fixed cost and screening carry the orders commits; the
   customer updates put a join evaluation into the tail. *)
let dashboard =
  let open Condition.Formula.Dsl in
  let open Query.Expr in
  {
    name = "dashboard-oltp";
    domains = 1;
    build =
      (fun rng ->
        Scenario.orders ~rng ~customers:dashboard_customers
          ~orders:dashboard_orders);
    empty = empty_orders;
    views =
      [
        base_view "dashboard"
          (project [ "oid"; "cid"; "amount" ]
             (select
                ((v "amount" >% i 900) &&% (v "region" =% s "north"))
                (join (base "orders") (base "customers"))));
        base_view "hot_orders"
          (project [ "oid"; "amount" ]
             (select (v "amount" >% i 950) (base "orders")));
        base_view "rush_small"
          (project [ "oid"; "cid"; "priority" ]
             (select
                ((v "priority" >=% i 4) &&% (v "amount" <% i 100)
                &&% (v "status" =% i 0))
                (join (base "orders") (base "customers"))));
      ];
    keyed = [];
    next =
      (fun rng rel i ->
        if i mod customer_update_every = customer_update_every - 1 then begin
          (* An in-place customer update: same cid, new region/status. *)
          let customers = rel "customers" in
          match Shadow.sample rng customers 1 with
          | [ old ] ->
            let make rng r =
              let t = Workload.Generate.tuple rng r.Shadow.columns in
              t.(0) <- old.(0);
              t
            in
            let replacement = Shadow.fresh ~make rng customers 1 in
            Shadow.transaction customers ~inserts:replacement ~deletes:[ old ]
          | _ -> []
        end
        else
          let orders = rel "orders" in
          let deletes = Shadow.sample rng orders dashboard_batch in
          let inserts = Shadow.fresh rng orders dashboard_batch in
          Shadow.transaction orders ~inserts ~deletes);
  }

(* --- rollup-tower ------------------------------------------------------ *)

let rollup_orders = 10_000
let rollup_customers = 500
let rollup_batch = 20

(* A GROUP BY rollup plus a tower view and no selective predicate: the
   screen keeps every tuple (the control for screening changes), and
   grouped accumulation, MIN/MAX rescans and the dependents cascade do
   the work. *)
let rollup =
  let open Query.Expr in
  {
    name = "rollup-tower";
    domains = 1;
    build =
      (fun rng ->
        Scenario.orders ~rng ~customers:rollup_customers ~orders:rollup_orders);
    empty = empty_orders;
    views =
      [
        base_view "cust_rollup"
          (group_by ~keys:[ "cid"; "region" ]
             [
               agg Query.Aggregate.Count "n_orders";
               agg (Query.Aggregate.Sum "amount") "revenue";
               agg (Query.Aggregate.Avg "amount") "avg_amount";
               agg (Query.Aggregate.Min "amount") "min_amount";
               agg (Query.Aggregate.Max "amount") "max_amount";
             ]
             (join (base "orders") (base "customers")));
        {
          view_name = "region_rollup";
          expr =
            group_by ~keys:[ "region" ]
              [
                agg Query.Aggregate.Count "n_customers";
                agg (Query.Aggregate.Sum "revenue") "revenue";
                agg (Query.Aggregate.Max "max_amount") "max_amount";
              ]
              (base "cust_rollup");
          tower = true;
        };
      ];
    keyed = [ ("orders", 1) ];
    next =
      (fun rng rel _ ->
        (* Churn pinned to one customer: delete up to [rollup_batch] of
           its orders and insert as many new ones, so the relation keeps
           its size and the group's MIN/MAX support drains. *)
        let orders = rel "orders" in
        match Shadow.sample rng orders 1 with
        | [ pivot ] ->
          let cid = Tuple.get pivot 1 in
          let deletes = Shadow.sample_key rng orders cid rollup_batch in
          let make rng r =
            let t = Workload.Generate.tuple rng r.Shadow.columns in
            t.(1) <- cid;
            t
          in
          let inserts = Shadow.fresh ~make rng orders (List.length deletes) in
          Shadow.transaction orders ~inserts ~deletes
        | _ -> []);
  }

(* --- chain-bulk -------------------------------------------------------- *)

(* An unselective 3-way chain join on a domain pool, the only workload that
   exercises lib/exec.  Screening drops nothing; truth-table evaluation
   carries the small batches.  The bulk batches are sized past the
   advisor's crossover for these relation sizes (see Advisor.decide), so
   the advisor sees both sides of it. *)

let chain_p = 3
let chain_size = 4_000
let chain_key_range = 4_000
let chain_small = 50
let chain_bulk = 1_500
let chain_bulk_every = 5

let chain =
  let open Query.Expr in
  let names = List.init chain_p (fun i -> Printf.sprintf "R%d" (i + 1)) in
  {
    name = "chain-bulk";
    domains = min 2 (Domain.recommended_domain_count ());
    build =
      (fun rng ->
        fst
          (Scenario.chain ~rng ~p:chain_p ~size:chain_size
             ~key_range:chain_key_range));
    empty =
      (fun () ->
        empty_like
          (fst (Scenario.chain ~rng:(Rng.make 0) ~p:chain_p ~size:1 ~key_range:1)));
    views =
      [ base_view "chain" (join_all (List.map (fun n -> base n) names)) ];
    keyed = [];
    next =
      (fun rng rel i ->
        let r = rel (List.nth names (i mod chain_p)) in
        let n =
          if i mod chain_bulk_every = chain_bulk_every - 1 then chain_bulk
          else chain_small
        in
        let deletes = Shadow.sample rng r n in
        let inserts = Shadow.fresh rng r n in
        Shadow.transaction r ~inserts ~deletes);
  }

let all = [ dashboard; rollup; chain ]
let find name = List.find_opt (fun w -> w.name = name) all

(* --- streams ----------------------------------------------------------- *)

(* The stream's generator is seeded apart from the scenario's, so the
   same seed gives the same database and the same transactions. *)
type stream = {
  workload : t;
  rng : Rng.t;
  shadows : (string * Shadow.rel) list;
  mutable index : int;
}

let stream_seed seed = (seed * 7919) + 104_729

let stream workload ~seed (sc : Scenario.t) =
  let shadows =
    List.map
      (fun name ->
        ( name,
          Shadow.of_relation
            ?key:(List.assoc_opt name workload.keyed)
            name
            (Scenario.columns_of sc name)
            (Database.find sc.Scenario.db name) ))
      (Database.names sc.Scenario.db)
  in
  { workload; rng = Rng.make (stream_seed seed); shadows; index = 0 }

let next s =
  let txn = s.workload.next s.rng (fun n -> List.assoc n s.shadows) s.index in
  s.index <- s.index + 1;
  txn

(* The next [n] transactions, in stream order. *)
let block s n =
  let out = ref [] in
  for _ = 1 to n do
    out := next s :: !out
  done;
  List.rev !out
