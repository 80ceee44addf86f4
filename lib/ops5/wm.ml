
type change =
  | Add of Wme.t
  | Remove of Wme.t

type t = {
  mutable next_tag : int;
  by_tag : (int, Wme.t) Hashtbl.t;
}

let create () = { next_tag = 1; by_tag = Hashtbl.create 256 }

let add t ~cls ~fields =
  let w = Wme.make ~cls ~fields ~timetag:t.next_tag in
  t.next_tag <- t.next_tag + 1;
  Hashtbl.replace t.by_tag w.Wme.timetag w;
  w

let remove t w =
  if not (Hashtbl.mem t.by_tag w.Wme.timetag) then raise Not_found;
  Hashtbl.remove t.by_tag w.Wme.timetag

let mem t w = Hashtbl.mem t.by_tag w.Wme.timetag
let size t = Hashtbl.length t.by_tag
let iter f t = Hashtbl.iter (fun _ w -> f w) t.by_tag

let to_list t =
  Hashtbl.fold (fun _ w acc -> w :: acc) t.by_tag []
  |> List.sort Wme.compare

let pp schema ppf t =
  List.iter (fun w -> Format.fprintf ppf "%a@." (Wme.pp schema) w) (to_list t)
