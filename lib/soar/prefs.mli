(** Preference semantics for context-slot decisions.

    Productions vote for slot values by creating wmes of the literalized
    [preference] class; the decision procedure reduces the votes for one
    (goal, role) slot to a verdict. The subset implemented — acceptable,
    reject, better/worse, best, worst, indifferent — is the part of
    Soar's preference language the paper's tasks rely on. *)

open Psme_support
open Psme_ops5

type ptype =
  | Acceptable
  | Reject
  | Better   (** value is better than referent *)
  | Worse    (** value is worse than referent *)
  | Best
  | Worst
  | Indifferent  (** binary with referent, or unary (indifferent to all) *)

val ptype_of_sym : Sym.t -> ptype option
val sym_of_ptype : ptype -> Sym.t

type vote = {
  value : Value.t;
  ptype : ptype;
  referent : Value.t option;
}

type verdict =
  | Winner of Value.t
  | No_candidates
  | Tie of Value.t list  (** surviving candidates, deterministic order *)

val decide : vote list -> verdict
(** Reduce one slot's votes:
    candidates = acceptable − rejected; better/worse prune dominated
    candidates (two-way cycles leave both; when a longer cycle leaves
    every candidate dominated, the cycles that no outside candidate
    dominates survive); best restricts to best-marked
    candidates when any survive; worst-marked candidates are dropped
    when a non-worst candidate survives; a multi-candidate remainder is
    a {!Winner} (the least value) only if every pair is covered by an
    indifferent vote, otherwise a {!Tie}. *)

(** {2 The wme encoding} *)

val class_name : string
val fields : string list
(** [["goal"; "role"; "value"; "type"; "referent"]] *)

val declare : Schema.t -> unit

val encode :
  Schema.t -> goal:Sym.t -> role:Sym.t -> vote -> Value.t array
(** Field array for a preference wme. *)

val decode : Psme_ops5.Wme.t -> (Sym.t * Sym.t * vote) option
(** [(goal, role, vote)] if the wme is a well-formed preference. *)
