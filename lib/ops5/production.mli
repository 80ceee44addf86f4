(** Productions (condition–action rules). *)

open Psme_support

type t = private {
  name : Sym.t;
  lhs : Cond.t list;
  rhs : Action.t list;
  is_chunk : bool;  (** learned at run time by chunking *)
}

val make :
  ?is_chunk:bool -> name:Sym.t -> lhs:Cond.t list -> rhs:Action.t list -> unit -> t
(** Validates the production:
    - the LHS is non-empty and its first condition is positive;
    - every variable used in a negated CE, an NCC, a predicate operand or
      the RHS is bound by some positive CE (binding occurrences are
      [T_var] tests in positive CEs);
    - [Remove]/[Modify] indices refer to positive CEs.
    Raises [Invalid_argument] with a descriptive message otherwise. *)

(** {2 Written-order semantics}

    The LHS reads left to right. Within a CE, tests run in field order.
    A variable's first occurrence in a top-level positive CE binds it;
    later occurrences test equality. A variable that a negated CE or an
    NCC group mentions before any earlier positive CE has bound it is
    local to that CE or group: [-(slot ^holds <n>) (item ^name <n>)]
    means "no slot holds anything", not "no slot holds this item". A
    build that moves negations after every positive CE (the reordered
    and bilinear builds) would turn such a local into a join, so those
    builds decline the productions {!negates_before_binding} flags. *)

val negates_before_binding : t -> bool
(** Some negated CE or NCC group mentions a variable before the
    top-level positive CE that binds it. *)

val num_ces : t -> int
(** The paper's condition-element count (Table 5-1). *)

val bound_vars : t -> string list
(** Variables bound by positive CEs, in binding order, without
    duplicates. *)

val positive_ce : t -> int -> Cond.ce
(** [positive_ce p n] is the [n]-th (1-based) positive CE, as addressed
    by [Remove]/[Modify]. *)

val pp : Schema.t -> Format.formatter -> t -> unit
