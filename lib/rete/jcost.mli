(** Static join-cost model.

    Estimates, without running the network, what a production's beta
    chain will cost: per-CE alpha-memory cardinalities from constant-test
    specificity, per-level scan work from the token×memory product the
    two-input nodes perform (the paper's dominant term), and join
    selectivity from the variable links between a CE and the already
    placed prefix. The absolute numbers are model units, not wmes — only
    the {e ranking} across productions and across orders of one
    production is meaningful, which is what the analyzer reports and
    what the profiler-correlation test asserts.

    Lives in [Psme_rete] (not [Psme_check]) because {!Build} consumes
    {!suggest_order} for join reordering while the analyzer consumes the
    chains for cost findings; the check library already depends on this
    one. *)

open Psme_support
open Psme_ops5

val base_card : float ref
(** Assumed wme population per class before constant tests (model
    parameter; default 16). *)

val quadratic_bound : unit -> float
(** [base_card²] — the token-count threshold beyond which a chain is
    flagged as super-quadratic (an unlinked or badly ordered join). *)

(** Per-condition statistics, derived by scanning a CE's tests in the
    exact order {!Build} consumes them. *)
type ce_stats = {
  cs_idx : int;  (** index among the production's positive CEs *)
  cs_cls : Sym.t;
  cs_selectivity : float;  (** product of constant-test selectivities, (0,1] *)
  cs_card : float;  (** estimated alpha-memory cardinality *)
  cs_eq_vars : string list;  (** vars with an equality occurrence *)
  cs_pred_vars : string list;  (** vars occurring under <>, <, <=, >, >= *)
  cs_requires : string list;
      (** vars whose first occurrence is a predicate — must be bound by
          an earlier CE for the build to accept this placement *)
  cs_vars : string list;  (** all distinct vars, equality vars first *)
}

(** One join level of a simulated chain. *)
type step = {
  st_ce : int;  (** positive-CE index placed at this level *)
  st_scan : float;  (** estimated opposite-memory scan work *)
  st_tokens : float;  (** tokens flowing out of this level *)
  st_linked : bool;  (** shares ≥1 bound variable with the prefix *)
}

type chain = {
  ch_order : int array;  (** positive-CE indices in placement order *)
  ch_steps : step list;  (** positives in order, then slotless negatives *)
  ch_cost : float;  (** Σ scan — the chain-cost bound *)
  ch_peak : float;  (** max tokens at any level *)
  ch_cross : int list;  (** levels joined with no variable linkage *)
}

val stats_of_ce : int -> Cond.ce -> ce_stats

val chain : Production.t -> chain
(** Cost of the production as written (negatives charged after the
    positive prefix they filter). *)

val chain_of_order : Production.t -> int array -> chain
(** Cost under an explicit placement order of the positive CEs.
    @raise Invalid_argument if the order's length is wrong. *)

val reorderable : Production.t -> bool
(** No NCC groups (their group-local slot layout pins the written
    order), at least two positive CEs, and no negation that mentions a
    variable before its binding CE (placing negations last would turn
    that local into a join; see {!Production.negates_before_binding}). *)

val suggest : Production.t -> chain option
(** Greedy dependency-respecting search for a cheaper placement:
    most-selective-linked-first, unlinked (cross-product) placements
    deferred as last resorts, ties broken by original index so the
    result is deterministic. [None] when the production is not
    {!reorderable}, the search returns the written order, or the
    predicted saving is negligible. *)

val suggest_order : Production.t -> int array option
(** [suggest] projected to the order — what {!Build} consumes. *)
