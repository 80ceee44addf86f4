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
(** Visits every wme in the order {!iter_order} gives. The order is the
    same in every process ([OCAMLRUNPARAM=R] does not move it). *)

val iter_order : t -> Wme.t -> Wme.t -> int
(** The order {!iter} visits wmes in: ascending
    [Hashtbl.hash timetag land (buckets t - 1)], then descending
    timetag. Sorting a few wmes with it puts them in walk order without
    visiting the rest. It reads the current bucket count, so sort at
    the point the walk it stands for would run. *)

val buckets : t -> int
(** The bucket count of the table behind {!iter}, mirrored from its
    growth: it starts at 256 and doubles when an add leaves more than
    two wmes per bucket. *)

val stats : t -> Hashtbl.statistics
(** The table's own statistics; its [num_buckets] is {!buckets}. *)

val to_list : t -> Wme.t list
(** In ascending timetag order. *)

val pp : Schema.t -> Format.formatter -> t -> unit
