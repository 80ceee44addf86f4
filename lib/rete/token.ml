open Psme_ops5

(* A token is immutable, but the usual way one is built is by extending
   its parent with one wme per join level. Storing a flat array makes
   that O(n) per level (O(n²) down a chain); storing the parent pointer
   makes it O(1) and lets deep tokens share their prefixes. The flat
   view is still needed by slot accessors, so it is materialized lazily
   and memoized.

   [raw] is the rolling timetag hash *without* the final [land max_int]
   masking, so extension is one multiply-add and the masked [hash] is
   bit-identical to hashing the materialized array (the khash values the
   memories were laid out with, and the cost model measured, do not
   change). *)

type t = {
  rep : rep;
  len : int;
  raw : int;  (* unmasked rolling hash of the wme timetags *)
  mutable arr : Wme.t array;  (* [||] = not yet materialized (len > 0) *)
}

and rep =
  | Flat  (* slots are in [arr] from construction *)
  | Snoc of t * Wme.t  (* parent chain plus one appended wme *)

let raw_of_wmes wmes =
  Array.fold_left (fun acc w -> (acc * 31) + w.Wme.timetag) 17 wmes

let of_wmes wmes =
  { rep = Flat; len = Array.length wmes; raw = raw_of_wmes wmes; arr = wmes }

let empty = of_wmes [||]

let extend t w =
  { rep = Snoc (t, w); len = t.len + 1; raw = (t.raw * 31) + w.Wme.timetag;
    arr = [||] }

let singleton w = extend empty w

let length t = t.len
let hash t = t.raw land max_int

(* Materialize (and memoize) the flat slot array. Tokens are shared
   across match processes; the memo write is a benign race — every
   domain computes the same array and a torn pointer cannot be observed
   (word-sized writes are atomic in the OCaml memory model). *)
let wmes t =
  if t.len = 0 then t.arr
  else if Array.length t.arr = t.len then t.arr
  else begin
    let last = function
      | { rep = Snoc (_, w); _ } -> w
      | { rep = Flat; arr; len; _ } -> arr.(len - 1)
    in
    let a = Array.make t.len (last t) in
    let rec fill node =
      match node.rep with
      | Flat -> Array.blit node.arr 0 a 0 node.len
      | Snoc (parent, w) ->
        if Array.length node.arr = node.len then Array.blit node.arr 0 a 0 node.len
        else begin
          a.(node.len - 1) <- w;
          fill parent
        end
    in
    fill t;
    t.arr <- a;
    a
  end

(* top-level, so that a field read allocates no closure over [i] *)
let rec back node i =
  match node.rep with
  | Flat -> node.arr.(i)
  | Snoc (parent, w) -> if i = node.len - 1 then w else back parent i

let wme t i =
  if i < 0 || i >= t.len then invalid_arg "Token.wme";
  if Array.length t.arr = t.len then t.arr.(i)
  else if t.len - i <= 4 then
    (* walk back from the tail; joins mostly touch recent slots, and
       stored tokens get materialized on their first full scan *)
    back t i
  else (wmes t).(i)

let concat a b =
  if b.len = 0 then a
  else if a.len = 0 then b
  else begin
    let bw = wmes b in
    let arr = Array.make (a.len + b.len) bw.(0) in
    Array.blit (wmes a) 0 arr 0 a.len;
    Array.blit bw 0 arr a.len b.len;
    of_wmes arr
  end

let prefix t n =
  if n = t.len then t
  else begin
    (* share the chain when only the tail is trimmed *)
    let rec strip node k =
      match node.rep with
      | Snoc (parent, _) when node.len > n && k > 0 -> strip parent (k - 1)
      | _ -> node
    in
    let stripped = strip t 4 in
    if stripped.len = n then stripped else of_wmes (Array.sub (wmes t) 0 n)
  end

let suffix t n =
  if n = 0 then t else of_wmes (Array.sub (wmes t) n (t.len - n))

let equal a b =
  a == b
  || (a.raw = b.raw && a.len = b.len
     && begin
       (* walk the two chains in lockstep; physically equal ancestors
          (shared prefixes, the common case among join results) end the
          comparison early *)
       let rec eq x y =
         x == y
         ||
         match x.rep, y.rep with
         | Snoc (xp, xw), Snoc (yp, yw) -> Wme.equal xw yw && eq xp yp
         | _ ->
           let xa = wmes x and ya = wmes y in
           let ok = ref true in
           Array.iteri (fun i w -> if not (Wme.equal w ya.(i)) then ok := false) xa;
           !ok
       in
       eq a b
     end)

let field t ~slot ~fld = Wme.field (wme t slot) fld

let permute t perm =
  let src = wmes t in
  of_wmes (Array.map (fun i -> src.(i)) perm)

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf w -> Format.pp_print_int ppf w.Wme.timetag))
    (Array.to_list (wmes t))
