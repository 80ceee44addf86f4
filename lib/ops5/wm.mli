(** Working memory: the multiset of current wmes.

    Owns timetag allocation. Engines receive wme {e changes}; this module
    is the bookkeeping behind them, shared by the OPS5 top level and the
    Soar decide module. *)

open Psme_support

type change =
  | Add of Wme.t
  | Remove of Wme.t

type t

val create : unit -> t

val add : t -> cls:Sym.t -> fields:Value.t array -> Wme.t
(** Allocates a timetag, inserts, and returns the new wme. *)

val remove : t -> Wme.t -> unit
(** Raises [Not_found] if the wme (by timetag) is not present. *)

val mem : t -> Wme.t -> bool
val size : t -> int
val iter : (Wme.t -> unit) -> t -> unit
val to_list : t -> Wme.t list
(** In ascending timetag order. *)

val pp : Schema.t -> Format.formatter -> t -> unit
