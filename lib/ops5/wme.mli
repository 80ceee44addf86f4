(** Working-memory elements.

    A wme is an instance of a declared class: the class symbol plus one
    value per declared attribute (absent attributes hold [nil]). The
    timetag is the OPS5 creation stamp; two wmes with equal contents but
    different timetags are distinct elements of working memory, and
    deletion targets a specific timetag. *)

open Psme_support

type t = private {
  cls : Sym.t;
  fields : Value.t array;
  timetag : int;
}

val make : cls:Sym.t -> fields:Value.t array -> timetag:int -> t

val field : t -> int -> Value.t

val same_contents : t -> t -> bool
(** Class and all fields equal (timetags ignored). A wme always has the
    same contents as itself, even when a field is a NaN float, which
    {!Value.equal} does not equate with itself. *)

val equal : t -> t -> bool
(** Identity: equal timetags. Within one working memory timetags are
    unique, so this is also structural identity of the element. *)

val compare : t -> t -> int
val hash : t -> int
(** Hash of the contents (class + fields), independent of timetag, so a
    delete token can locate the add token it cancels. *)

val pp : Schema.t -> Format.formatter -> t -> unit
val pp_plain : Format.formatter -> t -> unit
(** Without attribute names, for contexts with no schema at hand. *)
