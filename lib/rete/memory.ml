open Psme_ops5

type left_entry = {
  l_token : Token.t;
  mutable l_refs : int;
  mutable l_count : int;
}

type right_payload =
  | R_wme of Wme.t
  | R_tok of Token.t

(* [lnext]/[rnext]: the position of the next entry with the item's key
   in its line, or -1 *)
type l_item = { ln : int; lkh : int; entry : left_entry; mutable lnext : int }

type r_item = {
  rn : int;
  rkh : int;
  payload : right_payload;
  mutable r_refs : int;
  mutable rnext : int;
}

(* Which side a generic [side] holds: the chain code reads and writes
   links through it. *)
type _ kind = Left : l_item kind | Right : r_item kind

(* Each side of a line stores its entries in one array, in line order:
   the line "population" the cost model charges a probe for. A bucket —
   the entries of one key, (node, khash) folded to an int — is a chain
   threaded through them (paper §6.1): each entry records the position
   of the next entry with its key. A chain runs in ascending position,
   so following it visits entries in exactly the order the unindexed
   line scan did, and the serial engine's task schedule (and therefore
   its measured [scanned] stream) is unchanged. A flat open-addressing
   table maps a key to its chain's first position: linear probing over
   an int array, with backward-shift deletion.

   Key folding may collide two distinct (node, khash) pairs into one
   chain; every entry still carries its own node and khash and each
   walk re-checks them, so a collision only lengthens the chain.

   The chain code below reaches the links through the side's [kind], so
   both sides share it; only the walks that compare entries are written
   per side. *)
type 'a side = {
  kind : 'a kind;
  mutable items : 'a array;  (* positions [0, len) *)
  mutable len : int;
  mutable table : int array;  (* key at 2s (-1: empty slot), chain head at 2s+1 *)
  mutable keys : int;  (* occupied slots *)
  mutable prev : int;
      (* the last walk's result: the hit's predecessor in its chain, or
         the chain's tail after a miss (-1: none) *)
}

type line = {
  lock : Mutex.t;
  left : l_item side;
  right : r_item side;
  (* since creation; like every field above, written only under the
     line lock, and summed over the lines when read *)
  mutable left_total : int;
  mutable right_total : int;
}

type t = {
  lines : line array;
  mask : int;
  spins : int Atomic.t;
  left_accesses : int array;
      (* line -> left accesses since the last reset_cycle_stats; slot i
         is written only under line i's lock. One flat array, so the
         per-cycle fold reads no line record. *)
  mutable hist : int array;
  (* accesses-per-line-per-cycle [k] -> total left accesses on lines
     that saw [k] accesses that cycle (each line contributes k); see
     [access_histogram] in the interface *)
}

(* The khash of an equality-free node is its id seed alone, so the node
   term must not be that seed: xor-ing it in would give every such node
   of a line key 0, and one chain. *)
let bkey ~node ~khash = (khash + node) land max_int

let key_of : type a. a kind -> a -> int =
 fun k it ->
  match k with
  | Left -> bkey ~node:it.ln ~khash:it.lkh
  | Right -> bkey ~node:it.rn ~khash:it.rkh

let next_of : type a. a kind -> a -> int =
 fun k it -> match k with Left -> it.lnext | Right -> it.rnext

let set_next : type a. a kind -> a -> int -> unit =
 fun k it pos -> match k with Left -> it.lnext <- pos | Right -> it.rnext <- pos

(* --- the key table ------------------------------------------------------- *)

(* Most lines are never touched: their sides share the empty arrays, so
   Network.create stays cheap. *)
let new_side kind = { kind; items = [||]; len = 0; table = [||]; keys = 0; prev = -1 }

(* fold the high bits down, spread them with a multiply, fold again:
   keys sharing a line differ only above the line bits *)
let slot_hash key =
  let x = key lxor (key lsr 32) in
  let x = x * 0x9e3779b97f4a7c1 in
  x lxor (x lsr 29)

(* The slot holding [key] in the non-empty [table], or the empty slot
   where its probe ends. Loops rather than local recursive functions: a
   local function that captures its arguments is a closure allocated on
   every call. *)
let find_slot table key =
  let mask = (Array.length table lsr 1) - 1 in
  let s = ref (slot_hash key land mask) in
  let k = ref (Array.unsafe_get table (2 * !s)) in
  while !k <> key && !k >= 0 do
    s := (!s + 1) land mask;
    k := Array.unsafe_get table (2 * !s)
  done;
  !s

(* The first position of [key]'s chain, or -1 (an empty slot's head is
   -1 too). *)
let head s key =
  let table = s.table in
  if Array.length table = 0 then -1
  else Array.unsafe_get table ((2 * find_slot table key) + 1)

let set_head s key pos = s.table.((2 * find_slot s.table key) + 1) <- pos

(* From 8 slots, doubling past load 3/4: most tables stay small enough
   for the minor heap (a sparser table, from 16 slots at load 1/2, cost
   io-stream 3.6% more minor words per cycle). *)
let add_key s key pos =
  if 4 * (s.keys + 1) > 3 * (Array.length s.table lsr 1) then begin
    let old = s.table in
    let table = Array.make (max 16 (2 * Array.length old)) (-1) in
    for i = 0 to (Array.length old lsr 1) - 1 do
      let k = old.(2 * i) in
      if k >= 0 then begin
        let j = find_slot table k in
        table.(2 * j) <- k;
        table.((2 * j) + 1) <- old.((2 * i) + 1)
      end
    done;
    s.table <- table
  end;
  let j = find_slot s.table key in
  s.table.(2 * j) <- key;
  s.table.((2 * j) + 1) <- pos;
  s.keys <- s.keys + 1

(* Backward-shift deletion: each later key of the probe run moves back
   into the hole unless its home slot lies after the hole. *)
let remove_key s key =
  let table = s.table in
  let mask = (Array.length table lsr 1) - 1 in
  let hole = ref (find_slot table key) in
  let j = ref ((!hole + 1) land mask) in
  while table.(2 * !j) >= 0 do
    let k = table.(2 * !j) in
    if (!j - slot_hash k) land mask >= (!j - !hole) land mask then begin
      table.(2 * !hole) <- k;
      table.((2 * !hole) + 1) <- table.((2 * !j) + 1);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  table.(2 * !hole) <- -1;
  table.((2 * !hole) + 1) <- -1;
  s.keys <- s.keys - 1

(* --- chains --------------------------------------------------------------- *)

(* Push [x], whose link is -1, as the side's new last entry and append
   it to [key]'s chain after [tail], the chain's last position (-1: the
   key has no chain). The new position is the line's largest, so the
   chain stays ascending. *)
let append s key ~tail x =
  let pos = s.len in
  if pos = Array.length s.items then begin
    let items = Array.make (max 8 (2 * pos)) (Obj.magic 0) in
    Array.blit s.items 0 items 0 pos;
    s.items <- items
  end;
  s.items.(pos) <- x;
  s.len <- pos + 1;
  if tail < 0 then add_key s key pos else set_next s.kind s.items.(tail) pos

(* Re-thread [x], the line's last entry at [last] and the tail of
   [key]'s chain, as the entry at position [i] < [last], in ascending
   order: one walk finds both [last]'s predecessor and the last
   position before [i]. *)
let rethread s key x ~last i =
  let k = s.kind and items = s.items in
  let h = head s key in
  let before = ref (-1) and pred = ref (-1) and c = ref h in
  while !c <> last do
    if !c < i then before := !c;
    pred := !c;
    c := next_of k items.(!c)
  done;
  if !pred >= 0 then set_next k items.(!pred) (-1);
  if !before >= 0 then begin
    set_next k x (next_of k items.(!before));
    set_next k items.(!before) i
  end
  else begin
    set_next k x (if h = last then -1 else h);
    set_head s key i
  end

(* Remove position [i] of [key]'s chain, whose predecessor is [prev]
   (-1: [i] is the head; the key leaves the table with its last entry).
   The line's last entry then moves down into [i], as
   [Vec.swap_remove] does. *)
let remove_at s key ~prev i =
  let k = s.kind in
  let nx = next_of k s.items.(i) in
  if prev >= 0 then set_next k s.items.(prev) nx
  else if nx >= 0 then set_head s key nx
  else remove_key s key;
  let last = s.len - 1 in
  if i < last then begin
    let x = s.items.(last) in
    rethread s (key_of k x) x ~last i;
    s.items.(i) <- x
  end;
  s.items.(last) <- Obj.magic 0;
  s.len <- last

(* [remove_at] for an entry whose predecessor is not known. *)
let remove_any s i =
  let k = s.kind in
  let key = key_of k s.items.(i) in
  let prev = ref (-1) and c = ref (head s key) in
  while !c <> i do
    prev := !c;
    c := next_of k s.items.(!c)
  done;
  remove_at s key ~prev:!prev i

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
            { lock = Mutex.create (); left = new_side Left; right = new_side Right;
              left_total = 0; right_total = 0 });
      mask = n - 1;
      spins = Atomic.make 0;
      left_accesses = Array.make n 0;
      hist = [||];
    }
  in
  (* The most recently created memory owns the well-known probe names;
     sampling costs nothing on the access paths. The closures also keep
     that memory reachable, and perfbench's footprint subtracts what
     stays live after an operation: a copy without them read
     [live_heap_mb] 2.04 -> 6.36 MB on eight-puzzle-learn and 4.19 ->
     29.0 MB on cypress-learn. Releasing them moves that metric, so it
     belongs to a change of the benchmark (ROADMAP, "One benchmark
     harness"). *)
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

(* [li] is [l]'s index, which bounds it by the line count *)
let touch_left t li l =
  Array.unsafe_set t.left_accesses li (Array.unsafe_get t.left_accesses li + 1);
  l.left_total <- l.left_total + 1

(* Walk [key]'s chain for [node]'s entry of [token]: its position, or
   -1. The first match in ascending position is the entry the full line
   scan used to find. Leaves the predecessor or the tail in [s.prev]. *)
let find_left s key ~node ~khash token =
  let items = s.items in
  let prev = ref (-1) and i = ref (head s key) in
  while
    !i >= 0
    &&
    let it = Array.unsafe_get items !i in
    not (it.ln = node && it.lkh = khash && Token.equal it.entry.l_token token)
  do
    prev := !i;
    i := (Array.unsafe_get items !i).lnext
  done;
  s.prev <- !prev;
  !i

let inert = { l_token = Token.of_wmes [||]; l_refs = 0; l_count = 0 }

let left_insert t ~node ~khash token ~count =
  let li = line_of t ~khash in
  let l = t.lines.(li) in
  touch_left t li l;
  let s = l.left in
  let key = bkey ~node ~khash in
  let i = find_left s key ~node ~khash token in
  if i >= 0 then begin
    let e = s.items.(i).entry in
    e.l_refs <- e.l_refs + 1;
    if e.l_refs = 0 then begin
      (* annihilated an early delete *)
      remove_at s key ~prev:s.prev i;
      inert
    end
    else if e.l_refs = 1 then e
    else inert
  end
  else begin
    let e = { l_token = token; l_refs = 1; l_count = count } in
    append s key ~tail:s.prev { ln = node; lkh = khash; entry = e; lnext = -1 };
    e
  end

let left_delete t ~node ~khash token =
  let li = line_of t ~khash in
  let l = t.lines.(li) in
  touch_left t li l;
  let s = l.left in
  let key = bkey ~node ~khash in
  let i = find_left s key ~node ~khash token in
  if i >= 0 then begin
    let e = s.items.(i).entry in
    e.l_refs <- e.l_refs - 1;
    if e.l_refs = 0 then begin
      remove_at s key ~prev:s.prev i;
      e
    end
    else inert
  end
  else begin
    (* early delete: leave a tombstone for the add to annihilate *)
    append s key ~tail:s.prev
      { ln = node; lkh = khash; entry = { l_token = token; l_refs = -1; l_count = 0 };
        lnext = -1 };
    inert
  end

let left_add t ~node ~khash token ~count =
  let e = left_insert t ~node ~khash token ~count in
  if e == inert then `Inert else `Activated e

let left_remove t ~node ~khash token =
  let e = left_delete t ~node ~khash token in
  if e == inert then `Inert else `Deactivated e

let left_population t ~khash = t.lines.(line_of t ~khash).left.len

let left_fold t ~node ~khash ~stage x step acc =
  let li = line_of t ~khash in
  let l = t.lines.(li) in
  touch_left t li l;
  let s = l.left in
  let i = ref (head s (bkey ~node ~khash)) in
  if !i < 0 then acc
  else begin
    let test = stage x in
    let acc = ref acc in
    (* chain positions mirror every swap-remove, so they are always
       < len under the line lock: unsafe_get is in-bounds *)
    while !i >= 0 do
      let item = Array.unsafe_get s.items !i in
      if item.ln = node && item.lkh = khash && item.entry.l_refs >= 1 then
        acc := step test !acc item.entry;
      i := item.lnext
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

(* {!find_left} for the right side. *)
let find_right s key ~node ~khash payload =
  let items = s.items in
  let prev = ref (-1) and i = ref (head s key) in
  while
    !i >= 0
    &&
    let it = Array.unsafe_get items !i in
    not (it.rn = node && it.rkh = khash && payload_equal it.payload payload)
  do
    prev := !i;
    i := (Array.unsafe_get items !i).rnext
  done;
  s.prev <- !prev;
  !i

let right_add t ~node ~khash payload =
  let l = t.lines.(line_of t ~khash) in
  l.right_total <- l.right_total + 1;
  let s = l.right in
  let key = bkey ~node ~khash in
  let i = find_right s key ~node ~khash payload in
  if i >= 0 then begin
    let item = s.items.(i) in
    item.r_refs <- item.r_refs + 1;
    if item.r_refs = 0 then begin
      remove_at s key ~prev:s.prev i;
      false
    end
    else item.r_refs = 1
  end
  else begin
    append s key ~tail:s.prev { rn = node; rkh = khash; payload; r_refs = 1; rnext = -1 };
    true
  end

let right_remove t ~node ~khash payload =
  let l = t.lines.(line_of t ~khash) in
  l.right_total <- l.right_total + 1;
  let s = l.right in
  let key = bkey ~node ~khash in
  let i = find_right s key ~node ~khash payload in
  if i >= 0 then begin
    let item = s.items.(i) in
    item.r_refs <- item.r_refs - 1;
    if item.r_refs = 0 then begin
      remove_at s key ~prev:s.prev i;
      true
    end
    else false
  end
  else begin
    append s key ~tail:s.prev
      { rn = node; rkh = khash; payload; r_refs = -1; rnext = -1 };
    false
  end

let right_population t ~khash = t.lines.(line_of t ~khash).right.len

let right_fold t ~node ~khash ~stage x step acc =
  let l = t.lines.(line_of t ~khash) in
  l.right_total <- l.right_total + 1;
  let s = l.right in
  let i = ref (head s (bkey ~node ~khash)) in
  if !i < 0 then acc
  else begin
    let test = stage x in
    let acc = ref acc in
    (* same in-bounds argument as left_fold *)
    while !i >= 0 do
      let item = Array.unsafe_get s.items !i in
      if item.rn = node && item.rkh = khash && item.r_refs >= 1 then
        acc := step test !acc item.payload;
      i := item.rnext
    done;
    !acc
  end

let right_iter t ~node ~khash f =
  let scanned = right_population t ~khash in
  right_fold t ~node ~khash ~stage:Fun.id f visit ();
  scanned

(* --- whole-line walks ------------------------------------------------------ *)

let fold_side s f acc =
  let acc = ref acc in
  for i = 0 to s.len - 1 do
    acc := f !acc s.items.(i)
  done;
  !acc

let drop_node t ~node =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          let rec purge_left i =
            if i < line.left.len then
              if line.left.items.(i).ln = node then begin
                remove_any line.left i;
                purge_left i
              end
              else purge_left (i + 1)
          in
          purge_left 0;
          let rec purge_right i =
            if i < line.right.len then
              if line.right.items.(i).rn = node then begin
                remove_any line.right i;
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
          fold_side line.left
            (fun () item -> if item.ln = node && item.entry.l_refs >= 1 then f item.entry)
            ()))
    t.lines

let iter_node_right t ~node f =
  Array.iter
    (fun line ->
      Mutex.protect line.lock (fun () ->
          fold_side line.right
            (fun () item -> if item.rn = node && item.r_refs >= 1 then f item.payload)
            ()))
    t.lines

let fold_left_entries t ~init ~f =
  Array.fold_left
    (fun acc line ->
      Mutex.protect line.lock (fun () ->
          fold_side line.left
            (fun acc item -> f acc ~node:item.ln ~khash:item.lkh item.entry)
            acc))
    init t.lines

let fold_right_entries t ~init ~f =
  Array.fold_left
    (fun acc line ->
      Mutex.protect line.lock (fun () ->
          fold_side line.right
            (fun acc item ->
              f acc ~node:item.rn ~khash:item.rkh ~refs:item.r_refs item.payload)
            acc))
    init t.lines

let reset_cycle_stats t =
  let counts = t.left_accesses in
  for i = 0 to Array.length counts - 1 do
    let k = Array.unsafe_get counts i in
    if k > 0 then begin
      if k >= Array.length t.hist then begin
        let hist = Array.make (max 16 (2 * k)) 0 in
        Array.blit t.hist 0 hist 0 (Array.length t.hist);
        t.hist <- hist
      end;
      (* each of the line's k accesses was one left token arriving at a
         line with k accesses this cycle: weight the bin by k *)
      t.hist.(k) <- t.hist.(k) + k;
      Array.unsafe_set counts i 0
    end
  done

let access_histogram t =
  let bins = ref [] in
  for k = Array.length t.hist - 1 downto 1 do
    if t.hist.(k) > 0 then bins := (k, t.hist.(k)) :: !bins
  done;
  !bins

let clear_access_histogram t = t.hist <- [||]

let left_accesses_per_line t = Array.copy t.left_accesses
let total_spins t = Atomic.get t.spins

