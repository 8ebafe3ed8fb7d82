open Relalg
module Formula = Condition.Formula
module Satisfiability = Condition.Satisfiability
module Norm = Condition.Norm
module Graph = Condition.Constraint_graph
module Substitute = Condition.Substitute
module Eq_solver = Condition.Eq_solver

(* Per-disjunct precomputation (Algorithm 4.1 step 1-3). *)
type disjunct_screen = {
  dead : bool;
      (* invariant part proven unsatisfiable: no tuple can activate it *)
  variant : Formula.atom list;
  invariant_str : Formula.atom list;
  apsp : Graph.apsp;
  node_of : Attr.t -> int option;
}

type screen = {
  qualified_schema : Schema.t;
  typing : Satisfiability.typing;
  disjuncts : disjunct_screen list;
  full_dnf : Formula.dnf; (* for the naive baseline *)
  attr_bounds : Attr.t -> (int * int) option;
}

let str_fragment_unsat atoms =
  match Eq_solver.solve atoms with
  | Eq_solver.Unsat -> true
  | Eq_solver.Sat | Eq_solver.Unknown -> false

(* Declared domain bounds become invariant constraints on the unbound
   variables (the paper assumes finite domains; declaring them lets the
   screen refute conditions such as C > 100 when C's domain ends at 50). *)
let bound_atoms_for ~attr_bounds vars =
  List.concat_map
    (fun v ->
      match attr_bounds v with
      | None -> []
      | Some (lo, hi) ->
        [
          Formula.atom (Formula.O_var v) Formula.Geq
            (Formula.O_const (Value.Int lo));
          Formula.atom (Formula.O_var v) Formula.Leq
            (Formula.O_const (Value.Int hi));
        ])
    vars

let prepare_disjunct ~typing ~bound ~attr_bounds conj =
  let split = Substitute.split_conjunction ~bound conj in
  (* If the whole disjunct is already unsatisfiable, no substitution can
     revive it: every update is irrelevant as far as it is concerned. *)
  let whole_unsat =
    Satisfiability.is_unsat
      (Satisfiability.conjunction ~typing
         (conj
         @ bound_atoms_for ~attr_bounds
             (List.sort_uniq Attr.compare (List.concat_map Formula.atom_vars conj))))
  in
  let fragment = Satisfiability.partition typing split.Substitute.invariant in
  (* Unbound variables of the whole disjunct that may appear as graph
     nodes: invariant variables plus the surviving variables of variant
     atoms. *)
  let unbound_int_vars =
    List.sort_uniq Attr.compare
      (List.filter
         (fun v -> (not (bound v)) && typing v = Value.Int_ty)
         (List.concat_map Formula.atom_vars conj))
  in
  let graph = Graph.create unbound_int_vars in
  let dead = ref (whole_unsat || fragment.Satisfiability.constant_false) in
  (* Domain bounds of the unbound variables join the invariant graph. *)
  List.iter
    (fun atom ->
      match Norm.normalize_atom atom with
      | Norm.Constraints cs -> List.iter (Graph.add_constraint graph) cs
      | Norm.Truth _ | Norm.Not_normalizable -> ())
    (bound_atoms_for ~attr_bounds unbound_int_vars);
  (* Load normalizable invariant constraints; disequalities are dropped
     (sound: fewer constraints can only under-detect negative cycles). *)
  List.iter
    (fun atom ->
      match Norm.normalize_atom atom with
      | Norm.Constraints cs -> List.iter (Graph.add_constraint graph) cs
      | Norm.Truth true -> ()
      | Norm.Truth false -> dead := true
      | Norm.Not_normalizable -> ())
    fragment.Satisfiability.int_atoms;
  (* A complete invariant check (with disequality expansion) can prove the
     disjunct dead even when the graph alone cannot. *)
  if
    Satisfiability.is_unsat
      (Satisfiability.int_fragment fragment.Satisfiability.int_atoms)
  then dead := true;
  if str_fragment_unsat fragment.Satisfiability.str_atoms then dead := true;
  let apsp = Graph.floyd_warshall graph in
  if apsp.Graph.negative then dead := true;
  {
    dead = !dead;
    variant = split.Substitute.variant;
    invariant_str = fragment.Satisfiability.str_atoms;
    apsp;
    node_of = (fun v -> (try Some (Graph.node_index graph v) with Not_found -> None));
  }

(* Bounds of any qualified attribute, looked up in its source's schema. *)
let attr_bounds_of ~lookup (spj : Query.Spj.t) =
  let schemas =
    List.map
      (fun (s : Query.Spj.source) ->
        (s.Query.Spj.alias, Query.Spj.qualified_schema lookup s))
      spj.Query.Spj.sources
  in
  fun v ->
    List.find_map
      (fun (_, schema) ->
        if Schema.mem schema v then Schema.bounds schema v else None)
      schemas

let prepare ~lookup ~spj ~alias =
  let source = Query.Spj.source_with_alias spj alias in
  let qualified_schema = Query.Spj.qualified_schema lookup source in
  let typing = Query.Spj.typing lookup spj in
  let bound v = Schema.mem qualified_schema v in
  let attr_bounds = attr_bounds_of ~lookup spj in
  let disjuncts =
    List.map
      (prepare_disjunct ~typing ~bound ~attr_bounds)
      spj.Query.Spj.condition_dnf
  in
  {
    qualified_schema;
    typing;
    disjuncts;
    full_dnf = spj.Query.Spj.condition_dnf;
    attr_bounds;
  }

let always_irrelevant screen = List.for_all (fun d -> d.dead) screen.disjuncts

(* Decide one substituted variant atom.  Returns [`False] when it kills the
   disjunct for this tuple, [`Edges] for graph constraints, [`Str] for a
   string atom to re-solve, [`Skip] when outside the decidable class. *)
let classify_substituted typing (a : Formula.atom) =
  let operand_ty = function
    | Formula.O_var v -> typing v
    | Formula.O_const v -> Value.ty_of v
  in
  match a.Formula.left, a.Formula.right with
  | Formula.O_const l, Formula.O_const r ->
    let r =
      match r, a.Formula.shift with
      | Value.Int k, s -> Value.Int (k + s)
      | (Value.Str _ as v), _ -> v
    in
    if Formula.eval_cmp a.Formula.cmp l r then `True else `False
  | _ -> (
    match operand_ty a.Formula.left, operand_ty a.Formula.right with
    | Value.Int_ty, Value.Int_ty -> (
      match Norm.normalize_atom a with
      | Norm.Constraints cs -> `Edges cs
      | Norm.Truth true -> `True
      | Norm.Truth false -> `False
      | Norm.Not_normalizable -> `Skip)
    | Value.Str_ty, Value.Str_ty ->
      (* The equality solver also refutes ordering cycles soundly. *)
      if a.Formula.shift <> 0 then `Skip else `Str a
    | Value.Int_ty, Value.Str_ty | Value.Str_ty, Value.Int_ty ->
      (* Mixed types never occur in well-typed views; fall back to the
         constant truth of the cross-type ordering. *)
      let int_on_left = operand_ty a.Formula.left = Value.Int_ty in
      let truth =
        match a.Formula.cmp with
        | Formula.Neq -> true
        | Formula.Eq -> false
        | Formula.Lt | Formula.Leq -> int_on_left
        | Formula.Gt | Formula.Geq -> not int_on_left
      in
      if truth then `True else `False)

(* Convert normalized zero-incident constraints to incremental edges. *)
let edges_of_constraints node_of cs =
  List.fold_left
    (fun acc (dc : Norm.dc) ->
      match acc with
      | None -> None
      | Some (extra_in, extra_out) -> (
        match dc.Norm.from_node, dc.Norm.to_node with
        | Norm.Var x, Norm.Zero -> (
          match node_of x with
          | Some i -> Some (extra_in, (i, dc.Norm.bound) :: extra_out)
          | None -> None)
        | Norm.Zero, Norm.Var x -> (
          match node_of x with
          | Some i -> Some ((i, dc.Norm.bound) :: extra_in, extra_out)
          | None -> None)
        | Norm.Zero, Norm.Zero -> if dc.Norm.bound < 0 then None else acc
        | Norm.Var _, Norm.Var _ ->
          (* cannot happen: substituted variant atoms keep at most one
             variable *)
          assert false))
    (Some ([], [])) cs

(* The Theorem 4.1 clause (or solver) that proved a tuple irrelevant —
   provenance reuses the diagnostic-code bands of lib/analysis: IVM011 is
   the static "always irrelevant" verdict, IVM001 the per-tuple
   unsatisfiability clauses. *)
type rule =
  | Invariant_unsat
  | Substituted_false
  | String_conflict
  | Negative_cycle

let all_rules =
  [ Invariant_unsat; Substituted_false; String_conflict; Negative_cycle ]

(* Doubles as a precedence: when several disjuncts die for different
   reasons, the per-tuple reasons outrank the static invariant one. *)
let rule_index = function
  | Invariant_unsat -> 0
  | Substituted_false -> 1
  | String_conflict -> 2
  | Negative_cycle -> 3

let rule_id = function
  | Invariant_unsat -> "IVM011:invariant-unsat"
  | Substituted_false -> "IVM001:substituted-false"
  | String_conflict -> "IVM001:string-conflict"
  | Negative_cycle -> "IVM001:negative-cycle"

let rule_description = function
  | Invariant_unsat ->
    "Theorem 4.1 via the invariant split (Definition 4.2): the condition's \
     invariant part is unsatisfiable, so every update to this source is \
     irrelevant"
  | Substituted_false ->
    "Theorem 4.1: substituting the tuple makes an atom of every surviving \
     disjunct constant-false"
  | String_conflict ->
    "Theorem 4.1: the substituted string equalities are contradictory \
     (equality-solver refutation)"
  | Negative_cycle ->
    "Theorem 4.1 via Algorithm 4.1: the substituted difference constraints \
     close a negative cycle in the constraint graph"

(* Why this disjunct cannot be satisfied by any extension of [tuple];
   [None] when it still can be — the single implementation behind both
   the boolean screen and the provenance explain. *)
let disjunct_refutation screen d tuple =
  if d.dead then Some Invariant_unsat
  else begin
    let lookup = Substitute.of_tuple screen.qualified_schema tuple in
    let substituted = List.map (Substitute.atom lookup) d.variant in
    let rec walk extra_in extra_out str_atoms = function
      | [] -> `Check (extra_in, extra_out, str_atoms)
      | a :: rest -> (
        match classify_substituted screen.typing a with
        | `False -> `Dead
        | `True | `Skip -> walk extra_in extra_out str_atoms rest
        | `Str s -> walk extra_in extra_out (s :: str_atoms) rest
        | `Edges cs -> (
          match edges_of_constraints d.node_of cs with
          | None -> `Dead (* a 0 - 0 <= negative constraint *)
          | Some (more_in, more_out) ->
            walk (more_in @ extra_in) (more_out @ extra_out) str_atoms rest))
    in
    match walk [] [] [] substituted with
    | `Dead -> Some Substituted_false
    | `Check (extra_in, extra_out, str_atoms) ->
      if
        str_atoms <> []
        && str_fragment_unsat (d.invariant_str @ str_atoms)
      then Some String_conflict
      else if Graph.negative_with_zero_edges d.apsp ~extra_in ~extra_out then
        Some Negative_cycle
      else None
  end

let disjunct_possibly_sat screen d tuple =
  disjunct_refutation screen d tuple = None

let relevant screen tuple =
  List.exists (fun d -> disjunct_possibly_sat screen d tuple) screen.disjuncts

(* [None] = relevant; [Some rule] = provably irrelevant, naming the
   highest-precedence refutation across the disjuncts.  Early-exits on
   the first live disjunct exactly like [relevant]. *)
let explain screen tuple =
  let rec go best = function
    | [] -> Some best
    | d :: rest -> (
      match disjunct_refutation screen d tuple with
      | None -> None
      | Some r -> go (if rule_index r > rule_index best then r else best) rest)
  in
  go Invariant_unsat screen.disjuncts

let relevant_naive screen tuple =
  let lookup = Substitute.of_tuple screen.qualified_schema tuple in
  let substituted = Substitute.dnf lookup screen.full_dnf in
  let with_bounds =
    List.map
      (fun conj ->
        conj
        @ bound_atoms_for ~attr_bounds:screen.attr_bounds
            (List.sort_uniq Attr.compare
               (List.concat_map Formula.atom_vars conj)))
      substituted
  in
  not
    (Satisfiability.is_unsat
       (Satisfiability.dnf ~typing:screen.typing with_bounds))

let n_rules = List.length all_rules

let screen_delta_explain screen (d : Delta.t) =
  let kept = ref 0 and dropped = ref 0 in
  let rule_counts = Array.make n_rules 0 in
  let filter r =
    let out = Relation.create (Relation.schema r) in
    Relation.iter
      (fun t c ->
        match explain screen t with
        | None ->
          incr kept;
          Relation.update out t c
        | Some rule ->
          incr dropped;
          rule_counts.(rule_index rule) <- rule_counts.(rule_index rule) + 1)
      r;
    out
  in
  let screened =
    { Delta.inserts = filter d.Delta.inserts; deletes = filter d.Delta.deletes }
  in
  let rules =
    List.filter_map
      (fun rule ->
        let n = rule_counts.(rule_index rule) in
        if n > 0 then Some (rule, n) else None)
      all_rules
  in
  (* Bulk counter updates after the per-tuple loop: the hot path stays
     free of telemetry except for this one guarded block of adds. *)
  if Obs.Control.enabled () then begin
    Obs.Metrics.add "ivm_screen_kept_total" !kept;
    Obs.Metrics.add "ivm_screen_dropped_total" !dropped;
    List.iter
      (fun (rule, n) ->
        Obs.Metrics.add "ivm_screen_rule_dropped_total"
          ~labels:[ ("rule", rule_id rule) ]
          n)
      rules
  end;
  (screened, (!kept, !dropped), rules)

let screen_delta_stats screen d =
  let screened, counts, _rules = screen_delta_explain screen d in
  (screened, counts)

let screen_delta screen d = fst (screen_delta_stats screen d)

let combined_relevant ~lookup ~spj tuples =
  let typing = Query.Spj.typing lookup spj in
  let attr_bounds = attr_bounds_of ~lookup spj in
  let lookups =
    List.map
      (fun (alias, tuple) ->
        let source = Query.Spj.source_with_alias spj alias in
        Substitute.of_tuple (Query.Spj.qualified_schema lookup source) tuple)
      tuples
  in
  let combined = Substitute.combine lookups in
  let substituted = Substitute.dnf combined spj.Query.Spj.condition_dnf in
  let with_bounds =
    List.map
      (fun conj ->
        conj
        @ bound_atoms_for ~attr_bounds
            (List.sort_uniq Attr.compare
               (List.concat_map Formula.atom_vars conj)))
      substituted
  in
  not (Satisfiability.is_unsat (Satisfiability.dnf ~typing with_bounds))
