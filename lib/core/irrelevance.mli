(** Detection of irrelevant updates (Section 4).

    An inserted or deleted tuple [t] is {e irrelevant} to a view iff the
    condition obtained by substituting [t]'s values — C(t, Y2) — is
    unsatisfiable, independently of the database state (Theorem 4.1).

    {!prepare} implements the compile-time part of Algorithm 4.1: the
    condition is split into invariant and variant formulae with respect to
    the updated relation (Definition 4.2), the invariant difference
    constraints are loaded into a graph, and its all-pairs shortest paths
    are precomputed.  {!relevant} is the per-tuple part: variant evaluable
    formulae are tested directly, variant non-evaluable formulae [x op c]
    become edges incident to the virtual node 0, and a negative cycle is
    detected incrementally in O(n^2) instead of rerunning Floyd–Warshall.

    The test errs on the side of relevance wherever the decidable class is
    exceeded (integer disequalities, string orderings): it never reports a
    relevant update as irrelevant. *)

open Relalg

type screen

(** [prepare ~lookup ~spj ~alias] precomputes the screen for updates to the
    source named [alias] of the view [spj].
    @raise Not_found if [alias] is not a source of the view. *)
val prepare :
  lookup:(string -> Schema.t) -> spj:Query.Spj.t -> alias:string -> screen

(** [true] when the view condition is invariantly unsatisfiable for this
    source: every update to it is irrelevant. *)
val always_irrelevant : screen -> bool

(** The Theorem 4.1 clause (or decision procedure) that proved a tuple
    irrelevant.  {!rule_id} reuses the diagnostic-code bands of
    [lib/analysis]: IVM011 for the static always-irrelevant verdict,
    IVM001 for the per-tuple unsatisfiability clauses. *)
type rule =
  | Invariant_unsat
      (** the invariant split (Definition 4.2) is unsatisfiable: every
          update to this source is irrelevant *)
  | Substituted_false
      (** substitution made an atom of every surviving disjunct
          constant-false *)
  | String_conflict
      (** the substituted string equalities are contradictory *)
  | Negative_cycle
      (** the substituted difference constraints close a negative cycle
          (Algorithm 4.1) *)

val all_rules : rule list

val rule_id : rule -> string
(** Stable machine-readable identifier, e.g. ["IVM001:negative-cycle"]. *)

val rule_description : rule -> string
(** One-sentence human explanation anchored to the paper. *)

(** [relevant screen t] decides Theorem 4.1 for one (unqualified) tuple of
    the updated relation; [false] means provably irrelevant. *)
val relevant : screen -> Tuple.t -> bool

val explain : screen -> Tuple.t -> rule option
(** [explain screen t] is [None] iff [relevant screen t]; [Some rule]
    names the refutation that screened the tuple out.  Same per-tuple
    cost as {!relevant}. *)

(** Per-tuple decision without the incremental precomputation: substitutes
    into the whole condition and runs the full satisfiability procedure.
    Semantically identical to {!relevant}; ablation E8a baseline. *)
val relevant_naive : screen -> Tuple.t -> bool

(** [screen_delta screen d] drops provably irrelevant tuples from both
    parts of a delta. *)
val screen_delta : screen -> Delta.t -> Delta.t

(** Statistics of the last [screen_delta] call are returned alongside when
    using [screen_delta_stats]: (kept, dropped). *)
val screen_delta_stats : screen -> Delta.t -> Delta.t * (int * int)

(** Like {!screen_delta_stats}, but additionally returns how many dropped
    tuples each screening {!rule} accounted for (rules with zero drops are
    omitted; order follows {!all_rules}). *)
val screen_delta_explain :
  screen -> Delta.t -> Delta.t * (int * int) * (rule * int) list

(** Theorem 4.2: a set of tuples inserted into (or deleted from) several
    relations with disjoint schemes is irrelevant iff the simultaneous
    substitution is unsatisfiable.  [tuples] maps source aliases to
    (unqualified) tuples. *)
val combined_relevant :
  lookup:(string -> Schema.t) ->
  spj:Query.Spj.t ->
  (string * Tuple.t) list ->
  bool
