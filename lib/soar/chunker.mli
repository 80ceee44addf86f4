(** Chunk construction: dependency backtracing and variablization.

    When problem solving in a subgoal creates a {e result} — a wme
    attached to a supergoal — chunking walks backward through the
    instantiation records that produced it, collecting the supergoal
    wmes that the derivation ultimately rested on. Those become the new
    production's conditions; the result, variablized consistently,
    becomes its action (§3 of the paper; Laird, Rosenbloom & Newell
    1986 for the mechanism). *)

open Psme_support
open Psme_ops5

type creator = {
  c_conds : Wme.t list;  (** the wmes the creating instantiation matched *)
  c_level : int;         (** goal depth the instantiation matched at *)
}

val backtrace :
  creator_of:(Wme.t -> creator option) ->
  level_of:(Wme.t -> int) ->
  target_level:int ->
  seeds:Wme.t list ->
  Wme.t list
(** Transitively replace every seed wme deeper than [target_level] by
    the conditions of its creator; wmes at or above the target level are
    the {e grounds} and are returned, deduplicated, in timetag order.
    Wmes with no recorded creator (architecture-generated) contribute
    nothing. *)

val build :
  Schema.t ->
  is_id:(Value.t -> bool) ->
  name:Sym.t ->
  grounds:Wme.t list ->
  results:(Sym.t * Value.t array) list ->
  Production.t option
(** Variablize identifiers consistently across grounds and results and
    assemble the chunk. Result identifiers that no condition binds
    become [(genatom)] terms. Returns [None] when no grounds survived
    backtracing (a chunk with an empty LHS would fire unconditionally). *)

val form_hash : Production.t -> int
(** A hash of the production's conditions and actions with variables
    numbered in order of first occurrence, so chunks that differ only in
    variable (identifier) names hash alike. The name is not hashed. *)

val same_form : Production.t -> Production.t -> bool
(** Equality up to a consistent renaming of variables, comparing
    constants with {!Psme_support.Value.equal} (so [Sym "3"] and [Int 3]
    differ); the name is not compared. Equal productions have equal
    {!form_hash}es. Used to suppress duplicate chunks. *)
