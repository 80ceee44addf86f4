open Psme_support
open Psme_ops5

type left_entry = {
  l_token : Token.t;
  mutable l_refs : int;
  mutable l_count : int;
}

type right_payload =
  | R_wme of Wme.t
  | R_tok of Token.t

type l_item = { ln : int; lkh : int; entry : left_entry }
type r_item = { rn : int; rkh : int; payload : right_payload; mutable r_refs : int }

(* Each line stores its entries in one Vec (the line "population" the
   cost model charges a probe for), plus a secondary index mapping a
   bucket key — (node, khash) folded to an int — to the *ascending*
   positions of that bucket's entries in the Vec. Probes and iterations
   walk only their own bucket chain; iterating positions in ascending
   order visits entries in exactly the order the unindexed line scan
   did, so the serial engine's task schedule (and therefore its measured
   [scanned] stream) is unchanged.

   Key folding may collide two distinct (node, khash) pairs into one
   chain; every entry still carries its own [ln]/[lkh] and each probe
   re-checks them, so a collision only lengthens the chain.

   The index is keyed by that int, so a probe mixes a few machine words
   instead of calling the polymorphic [caml_hash]. It is only probed,
   never iterated, so its hash decides no visit order. *)

module IH = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* fold the high bits down, spread them with a multiply, fold again:
     keys sharing a line differ only above the line bits *)
  let hash x =
    let x = x lxor (x lsr 32) in
    let x = x * 0x9e3779b97f4a7c1 in
    (x lxor (x lsr 29)) land max_int
end)

type line = {
  lock : Mutex.t;
  left : l_item Vec.t;
  right : r_item Vec.t;
  (* allocated on first use: most lines of a fresh memory are never
     touched, and Network.create should stay cheap *)
  mutable lidx : int Vec.t IH.t option;
  mutable ridx : int Vec.t IH.t option;
  mutable left_accesses : int;  (* since last reset_cycle_stats *)
  (* since creation; like every field above, written only under the
     line lock, and summed over the lines when read *)
  mutable left_total : int;
  mutable right_total : int;
}

type t = {
  lines : line array;
  mask : int;
  spins : int Atomic.t;
  hist : (int, int) Hashtbl.t;
  (* accesses-per-line-per-cycle [k] -> total left accesses on lines
     that saw [k] accesses that cycle (each line contributes k); see
     [access_histogram] in the interface *)
}

let bkey ~node ~khash = ((node * 0x9e3779b1) lxor khash) land max_int

(* --- ascending position lists ---------------------------------------- *)

(* Loops rather than local recursive functions: a local function that
   captures its arguments is a closure allocated on every call. *)
let ivec_remove v x =
  let n = Vec.length v in
  let i = ref 0 in
  while !i < n && Vec.unsafe_get v !i <> x do
    incr i
  done;
  if !i < n then begin
    for j = !i to n - 2 do
      Vec.set v j (Vec.unsafe_get v (j + 1))
    done;
    ignore (Vec.pop v)
  end

let ivec_insert_sorted v x =
  Vec.push v x;
  let j = ref (Vec.length v - 1) in
  while !j > 0 && Vec.unsafe_get v (!j - 1) > x do
    Vec.set v !j (Vec.unsafe_get v (!j - 1));
    decr j
  done;
  Vec.set v !j x

(* The chain of an absent key: shared, and never pushed to. *)
let no_chain : int Vec.t = Vec.create ()

(* [find_opt], not [find]: a miss raising [Not_found] costs several
   times a probe *)
let chain idx key =
  match idx with
  | None -> no_chain
  | Some h -> ( match IH.find_opt h key with Some ps -> ps | None -> no_chain)

(* Register [pos], the line's new last position, in [key]'s chain [ps]
   (the one the caller already probed; [no_chain] when the key has
   none yet). *)
let chain_push idx ps key pos =
  if ps != no_chain then Vec.push ps pos (* pos is the new maximum: stays ascending *)
  else begin
    (* most chains hold one or two entries *)
    let v = Vec.make 2 in
    Vec.push v pos;
    IH.add idx key v
  end

(* Mirror Vec.swap_remove in the index: position [i] leaves its chain
   [ps] (the key is dropped when the chain empties), and the entry moved
   down from the end re-registers at its new position (which must be
   re-sorted into its own chain). *)
let swap_remove_indexed vec idx ps key ~key_of i =
  let n = Vec.length vec in
  ivec_remove ps i;
  if Vec.is_empty ps then IH.remove idx key;
  if i < n - 1 then begin
    let v = IH.find idx (key_of (Vec.get vec (n - 1))) in
    ivec_remove v (n - 1);
    ivec_insert_sorted v i
  end;
  Vec.swap_remove vec i

let the_idx = function Some h -> h | None -> assert false

let force_idx get set line =
  match get line with
  | Some h -> h
  | None ->
    let h = IH.create 8 in
    set line h;
    h

let force_lidx line = force_idx (fun l -> l.lidx) (fun l h -> l.lidx <- Some h) line
let force_ridx line = force_idx (fun l -> l.ridx) (fun l h -> l.ridx <- Some h) line

let lkey_of (it : l_item) = bkey ~node:it.ln ~khash:it.lkh
let rkey_of (it : r_item) = bkey ~node:it.rn ~khash:it.rkh

let total_left_accesses t = Array.fold_left (fun n l -> n + l.left_total) 0 t.lines
let total_right_accesses t = Array.fold_left (fun n l -> n + l.right_total) 0 t.lines

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(lines = 512) () =
  let n = next_pow2 lines in
  let t =
    {
      lines =
        Array.init n (fun _ ->
            { lock = Mutex.create (); left = Vec.create (); right = Vec.create ();
              lidx = None; ridx = None;
              left_accesses = 0; left_total = 0; right_total = 0 });
      mask = n - 1;
      spins = Atomic.make 0;
      hist = Hashtbl.create 64;
    }
  in
  (* The most recently created memory owns the well-known probe names;
     sampling costs nothing on the access paths. *)
  let module M = Psme_obs.Metrics in
  M.set_probe M.global "rete.memory.lines" (fun () -> float_of_int n);
  M.set_probe M.global "rete.memory.left_accesses" (fun () ->
      float_of_int (total_left_accesses t));
  M.set_probe M.global "rete.memory.right_accesses" (fun () ->
      float_of_int (total_right_accesses t));
  M.set_probe M.global "rete.memory.lock_spins" (fun () ->
      float_of_int (Atomic.get t.spins));
  t

let line_count t = Array.length t.lines
let line_of t ~khash = khash land t.mask

let lock t ~line =
  let l = t.lines.(line) in
  let tm = Psme_obs.Telemetry.global in
  Psme_obs.Telemetry.incr_lock_acquired tm;
  if not (Mutex.try_lock l.lock) then begin
    (* Spin as the paper's processes do, counting attempts. *)
    Psme_obs.Telemetry.incr_lock_contended tm;
    let spun = ref 0 in
    while not (Mutex.try_lock l.lock) do
      incr spun;
      Domain.cpu_relax ()
    done;
    Atomic.fetch_and_add t.spins !spun |> ignore;
    Psme_obs.Telemetry.add_lock_spins tm !spun
  end

let unlock t ~line = Mutex.unlock t.lines.(line).lock

let locked t ~line f =
  lock t ~line;
  match f () with
  | v ->
    unlock t ~line;
    v
  | exception e ->
    unlock t ~line;
    raise e

(* --- left side ---------------------------------------------------------- *)

let touch_left l =
  l.left_accesses <- l.left_accesses + 1;
  l.left_total <- l.left_total + 1

(* Position of the first matching entry of [key]'s chain [ps] in
   ascending line order — the same entry (and the same scan outcome) the
   full line scan used to find — or -1. *)
let find_left l ps ~node ~khash token =
  let n = Vec.length ps in
  let j = ref 0 and found = ref (-1) in
  while !found < 0 && !j < n do
    let i = Vec.unsafe_get ps !j in
    let item = Vec.unsafe_get l.left i in
    if item.ln = node && item.lkh = khash && Token.equal item.entry.l_token token then
      found := i;
    incr j
  done;
  !found

let left_push l ps key ~node ~khash entry =
  Vec.push l.left { ln = node; lkh = khash; entry };
  chain_push (force_lidx l) ps key (Vec.length l.left - 1)

let left_remove_at l ps key i =
  swap_remove_indexed l.left (the_idx l.lidx) ps key ~key_of:lkey_of i

let left_swap_remove l i =
  let key = lkey_of (Vec.get l.left i) in
  left_remove_at l (IH.find (the_idx l.lidx) key) key i

let inert = { l_token = Token.of_wmes [||]; l_refs = 0; l_count = 0 }

let left_insert t ~node ~khash token ~count =
  let l = t.lines.(line_of t ~khash) in
  touch_left l;
  let key = bkey ~node ~khash in
  let ps = chain l.lidx key in
  let i = find_left l ps ~node ~khash token in
  if i >= 0 then begin
    let e = (Vec.unsafe_get l.left i).entry in
    e.l_refs <- e.l_refs + 1;
    if e.l_refs = 0 then begin
      (* annihilated an early delete *)
      left_remove_at l ps key i;
      inert
    end
    else if e.l_refs = 1 then e
    else inert
  end
  else begin
    let e = { l_token = token; l_refs = 1; l_count = count } in
    left_push l ps key ~node ~khash e;
    e
  end

let left_delete t ~node ~khash token =
  let l = t.lines.(line_of t ~khash) in
  touch_left l;
  let key = bkey ~node ~khash in
  let ps = chain l.lidx key in
  let i = find_left l ps ~node ~khash token in
  if i >= 0 then begin
    let e = (Vec.unsafe_get l.left i).entry in
    e.l_refs <- e.l_refs - 1;
    if e.l_refs = 0 then begin
      left_remove_at l ps key i;
      e
    end
    else inert
  end
  else begin
    (* early delete: leave a tombstone for the add to annihilate *)
    left_push l ps key ~node ~khash { l_token = token; l_refs = -1; l_count = 0 };
    inert
  end

let left_add t ~node ~khash token ~count =
  let e = left_insert t ~node ~khash token ~count in
  if e == inert then `Inert else `Activated e

let left_remove t ~node ~khash token =
  let e = left_delete t ~node ~khash token in
  if e == inert then `Inert else `Deactivated e

let left_population t ~khash = Vec.length t.lines.(line_of t ~khash).left

let left_fold t ~node ~khash ~stage x step acc =
  let l = t.lines.(line_of t ~khash) in
  touch_left l;
  let ps = chain l.lidx (bkey ~node ~khash) in
  let n = Vec.length ps in
  if n = 0 then acc
  else begin
    let test = stage x in
    let acc = ref acc in
    (* index positions mirror swap_remove in lockstep, so they are
       always < length under the line lock: unsafe_get is in-bounds *)
    for j = 0 to n - 1 do
      let item = Vec.unsafe_get l.left (Vec.unsafe_get ps j) in
      if item.ln = node && item.lkh = khash && item.entry.l_refs >= 1 then
        acc := step test !acc item.entry
    done;
    !acc
  end

let visit f () x = f x

let left_iter t ~node ~khash f =
  (* the cost model charges for the whole line (the paper's hash-bucket
     scan); only the bucket chain is actually walked *)
  let scanned = left_population t ~khash in
  left_fold t ~node ~khash ~stage:Fun.id f visit ();
  scanned

(* --- right side --------------------------------------------------------- *)

let payload_equal a b =
  match a, b with
  | R_wme x, R_wme y -> Wme.equal x y
  | R_tok x, R_tok y -> Token.equal x y
  | (R_wme _ | R_tok _), _ -> false

let find_right l ps ~node ~khash payload =
  let n = Vec.length ps in
  let j = ref 0 and found = ref (-1) in
  while !found < 0 && !j < n do
    let i = Vec.unsafe_get ps !j in
    let item = Vec.unsafe_get l.right i in
    if item.rn = node && item.rkh = khash && payload_equal item.payload payload then
      found := i;
    incr j
  done;
  !found

let right_push l ps key ~node ~khash payload ~refs =
  Vec.push l.right { rn = node; rkh = khash; payload; r_refs = refs };
  chain_push (force_ridx l) ps key (Vec.length l.right - 1)

let right_remove_at l ps key i =
  swap_remove_indexed l.right (the_idx l.ridx) ps key ~key_of:rkey_of i

let right_swap_remove l i =
  let key = rkey_of (Vec.get l.right i) in
  right_remove_at l (IH.find (the_idx l.ridx) key) key i

let right_add t ~node ~khash payload =
  let l = t.lines.(line_of t ~khash) in
  l.right_total <- l.right_total + 1;
  let key = bkey ~node ~khash in
  let ps = chain l.ridx key in
  let i = find_right l ps ~node ~khash payload in
  if i >= 0 then begin
    let item = Vec.unsafe_get l.right i in
    item.r_refs <- item.r_refs + 1;
    if item.r_refs = 0 then begin
      right_remove_at l ps key i;
      false
    end
    else item.r_refs = 1
  end
  else begin
    right_push l ps key ~node ~khash payload ~refs:1;
    true
  end

let right_remove t ~node ~khash payload =
  let l = t.lines.(line_of t ~khash) in
  l.right_total <- l.right_total + 1;
  let key = bkey ~node ~khash in
  let ps = chain l.ridx key in
  let i = find_right l ps ~node ~khash payload in
  if i >= 0 then begin
    let item = Vec.unsafe_get l.right i in
    item.r_refs <- item.r_refs - 1;
    if item.r_refs = 0 then begin
      right_remove_at l ps key i;
      true
    end
    else false
  end
  else begin
    right_push l ps key ~node ~khash payload ~refs:(-1);
    false
  end

let right_population t ~khash = Vec.length t.lines.(line_of t ~khash).right

let right_fold t ~node ~khash ~stage x step acc =
  let l = t.lines.(line_of t ~khash) in
  l.right_total <- l.right_total + 1;
  let ps = chain l.ridx (bkey ~node ~khash) in
  let n = Vec.length ps in
  if n = 0 then acc
  else begin
    let test = stage x in
    let acc = ref acc in
    (* same in-bounds argument as left_fold *)
    for j = 0 to n - 1 do
      let item = Vec.unsafe_get l.right (Vec.unsafe_get ps j) in
      if item.rn = node && item.rkh = khash && item.r_refs >= 1 then
        acc := step test !acc item.payload
    done;
    !acc
  end

let right_iter t ~node ~khash f =
  let scanned = right_population t ~khash in
  right_fold t ~node ~khash ~stage:Fun.id f visit ();
  scanned

let drop_node t ~node =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          let rec purge_left i =
            if i < Vec.length line.left then
              if (Vec.get line.left i).ln = node then begin
                left_swap_remove line i;
                purge_left i
              end
              else purge_left (i + 1)
          in
          purge_left 0;
          let rec purge_right i =
            if i < Vec.length line.right then
              if (Vec.get line.right i).rn = node then begin
                right_swap_remove line i;
                purge_right i
              end
              else purge_right (i + 1)
          in
          purge_right 0))
    t.lines

let iter_node_left t ~node f =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          Vec.iter
            (fun item -> if item.ln = node && item.entry.l_refs >= 1 then f item.entry)
            line.left))
    t.lines

let iter_node_right t ~node f =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          Vec.iter
            (fun item -> if item.rn = node && item.r_refs >= 1 then f item.payload)
            line.right))
    t.lines

let fold_left_entries t ~init ~f =
  Array.fold_left
    (fun acc line ->
      Mutex.protect line.lock (fun () ->
          Vec.fold
            (fun acc item -> f acc ~node:item.ln ~khash:item.lkh item.entry)
            acc line.left))
    init t.lines

let fold_right_entries t ~init ~f =
  Array.fold_left
    (fun acc line ->
      Mutex.protect line.lock (fun () ->
          Vec.fold
            (fun acc item ->
              f acc ~node:item.rn ~khash:item.rkh ~refs:item.r_refs item.payload)
            acc line.right))
    init t.lines

let reset_cycle_stats t =
  Array.iter
    (fun line ->
      if line.left_accesses > 0 then begin
        let k = line.left_accesses in
        (* each of the line's k accesses was one left token arriving at a
           line with k accesses this cycle: weight the bin by k *)
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.hist k) in
        Hashtbl.replace t.hist k (prev + k);
        line.left_accesses <- 0
      end)
    t.lines

let access_histogram t =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.hist []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let clear_access_histogram t = Hashtbl.reset t.hist

let left_accesses_per_line t = Array.map (fun line -> line.left_accesses) t.lines
let total_spins t = Atomic.get t.spins

