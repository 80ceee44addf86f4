open Psme_support

type t = {
  cls : Sym.t;
  fields : Value.t array;
  timetag : int;
}

let make ~cls ~fields ~timetag = { cls; fields; timetag }

let[@inline] field t i = t.fields.(i)

let rec fields_equal fa fb i =
  i = Array.length fa || (Value.equal fa.(i) fb.(i) && fields_equal fa fb (i + 1))

let same_contents a b =
  a == b
  || Sym.equal a.cls b.cls
     && Array.length a.fields = Array.length b.fields
     && fields_equal a.fields b.fields 0

let equal a b = a.timetag = b.timetag
let compare a b = Stdlib.compare a.timetag b.timetag

let hash t =
  Array.fold_left
    (fun acc v -> (acc * 31) + Value.hash v)
    (Sym.hash t.cls) t.fields
  land max_int

let pp schema ppf t =
  Format.fprintf ppf "(%a" Sym.pp t.cls;
  Array.iteri
    (fun i v ->
      if not (Value.is_nil v) then
        Format.fprintf ppf " ^%a %a" Sym.pp (Schema.attr_name schema t.cls i) Value.pp v)
    t.fields;
  Format.fprintf ppf ")";
  Format.fprintf ppf "@@%d" t.timetag

let pp_plain ppf t =
  Format.fprintf ppf "(%a" Sym.pp t.cls;
  Array.iter (fun v -> Format.fprintf ppf " %a" Value.pp v) t.fields;
  Format.fprintf ppf ")@@%d" t.timetag
