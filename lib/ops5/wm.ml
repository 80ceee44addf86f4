type change =
  | Add of Wme.t
  | Remove of Wme.t

type t = {
  mutable next_tag : int;
  by_tag : (int, Wme.t) Hashtbl.t;
  mutable buckets : int;
      (* [by_tag]'s bucket count: Stdlib's [Hashtbl] starts at the power
         of two at or above the requested size and doubles when an insert
         leaves more than two bindings per bucket; it never shrinks *)
}

let initial_buckets = 256

(* Unrandomized, so the walk order — and every count that depends on
   the order of a cycle's deletes — is the same in every process. *)
let create () =
  {
    next_tag = 1;
    by_tag = Hashtbl.create ~random:false initial_buckets;
    buckets = initial_buckets;
  }

let add t ~cls ~fields =
  let w = Wme.make ~cls ~fields ~timetag:t.next_tag in
  t.next_tag <- t.next_tag + 1;
  Hashtbl.replace t.by_tag w.Wme.timetag w;
  if Hashtbl.length t.by_tag > 2 * t.buckets then t.buckets <- 2 * t.buckets;
  w

let remove t w =
  if not (Hashtbl.mem t.by_tag w.Wme.timetag) then raise Not_found;
  Hashtbl.remove t.by_tag w.Wme.timetag

let mem t w = Hashtbl.mem t.by_tag w.Wme.timetag
let size t = Hashtbl.length t.by_tag
let iter f t = Hashtbl.iter (fun _ w -> f w) t.by_tag

(* [Hashtbl.iter] visits the buckets in index order, and a bucket holds
   its bindings newest first: an insert goes to the bucket's head, and a
   resize keeps each bucket's order. Timetags only grow, so newest first
   is descending timetag. *)
let iter_order t a b =
  let mask = t.buckets - 1 in
  let c =
    Int.compare
      (Hashtbl.hash a.Wme.timetag land mask)
      (Hashtbl.hash b.Wme.timetag land mask)
  in
  if c <> 0 then c else Int.compare b.Wme.timetag a.Wme.timetag

let buckets t = t.buckets
let stats t = Hashtbl.stats t.by_tag

let to_list t =
  Hashtbl.fold (fun _ w acc -> w :: acc) t.by_tag []
  |> List.sort Wme.compare

let pp schema ppf t =
  List.iter (fun w -> Format.fprintf ppf "%a@." (Wme.pp schema) w) (to_list t)
