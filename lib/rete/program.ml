open Psme_support
open Psme_ops5
open Network

(* Closure-compiled node programs — the single-core analogue of PSM-E's
   open-coded machine code (PAPER §4). Each node's test sequence is
   compiled ONCE, when the node is created, into specialized OCaml
   closures; activations then run through a dispatch array indexed by
   node id (the §5.1 jumptable). Three specializations happen at compile
   time:

     1. khash extraction: the fold over the node's [eq] list becomes a
        closure specialized to the node's slots/fields (and folds to the
        node's seed constant when the list is empty);
     2. test fusion: the [jtest]/[btest] chains become ONE staged
        predicate. Staging is the key trick: the predicate first
        specializes on the activation-fixed operand (extracting its
        fields exactly once), then runs monomorphically over every
        candidate of the memory scan, instead of re-walking the test
        list and re-extracting the fixed side per candidate;
     3. fan-out: successor arrays are read directly (registration
        order), so emit allocates only the task records themselves.

   The jumptable is the only dispatch path: every live node has a
   program from the moment it is built, and an excised node's empty
   slot absorbs the tasks still queued for it. The conflict sets these
   programs produce are checked against an independent naive matcher
   (test/naive.ml) that shares no code with this library. *)

type cost_class = Entry_task | Two_input_task | Pnode_task | Absorbed_task

type outcome = {
  children : Task.t array;
  scanned : int;
  insts : (Task.flag * Conflict_set.inst) list;
  cost_class : cost_class;
  acc_node : int;
  acc_line : int;
  acc_locked : bool;
}

let absorbed =
  { children = [||]; scanned = 0; insts = []; cost_class = Absorbed_task; acc_node = -1;
    acc_line = -1; acc_locked = false }

(* Fault-injection hook for the race detector's self-test: when set, exec
   sections run WITHOUT taking the line lock (and report their accesses as
   unlocked). Never enable outside analysis tests. *)
let elide = ref false
let set_lock_elision b = elide := b
let lock_elision () = !elide

(* A section runs inline between [enter] and [leave] — no closure, no
   [Fun.protect] — with [leave] on both the normal and the exception
   path. [enter] returns whether it took the lock. *)
let enter mem ~line =
  if !elide then false
  else begin
    Memory.lock mem ~line;
    true
  end

let leave mem ~line locked = if locked then Memory.unlock mem ~line

(* The outcome of a task that ran one line-lock section. *)
let sectioned ~cost_class ~node ~line ~locked ~scanned children =
  { children; scanned; insts = []; cost_class; acc_node = node; acc_line = line;
    acc_locked = locked }

(* --- fan-out ---------------------------------------------------------- *)

let task_to flag token (sid, port) =
  match port with
  | P_left -> Task.Left { node = sid; flag; token }
  | P_right -> Task.Rtok { node = sid; flag; token }

let fill_row out ~row flag token succs ~from =
  for si = from to Array.length succs - 1 do
    out.(row + si) <- task_to flag token succs.(si)
  done

let emit n flag token =
  let succs = n.succs in
  if Array.length succs = 0 then [||]
  else begin
    let out = Array.make (Array.length succs) (task_to flag token succs.(0)) in
    fill_row out ~row:0 flag token succs ~from:1;
    out
  end

let rec fill_rows out ~ns flag extend fixed succs ti = function
  | [] -> ()
  | m :: rest ->
    fill_row out ~row:(ti * ns) flag (extend fixed m) succs ~from:0;
    fill_rows out ~ns flag extend fixed succs (ti - 1) rest

(* Fused extend+emit: the matched operands arrive as a list in REVERSE
   scan order (one cons per match — an empty scan allocates nothing);
   rows are filled back-to-front, so each extended token fans to every
   successor in registration order — the same sequence as emitting each
   extended token in scan order, without materializing the token list.
   The array is seeded with the last match's first task, a real element,
   so no match is extended twice. Token extension is skipped entirely
   when the node has no successors (extension is pure, so nothing
   observable is lost). [extend] is a static function of the
   activation's fixed operand and one match. *)
let emit_extended n flag extend fixed rev_ms =
  let succs = n.succs in
  let ns = Array.length succs in
  match rev_ms with
  | [] -> [||]
  | _ when ns = 0 -> [||]
  | last :: rest ->
    let k = List.length rev_ms in
    let tok = extend fixed last in
    let out = Array.make (k * ns) (task_to flag tok succs.(0)) in
    fill_row out ~row:((k - 1) * ns) flag tok succs ~from:1;
    fill_rows out ~ns flag extend fixed succs (k - 2) rest;
    out

(* Negative-node transitions: tokens, in reverse scan order, that all
   cross with the same flag. *)
let keep () tok = tok
let emit_tokens n flag rev_toks = emit_extended n flag keep () rev_toks

(* --- scan steps --------------------------------------------------------- *)

(* The [step] functions a node program folds over a bucket chain
   ({!Memory.left_fold}, {!Memory.right_fold}). They are static —
   closed over nothing — so a fold allocates only what it collects; the
   activation's staged test arrives as their first argument. *)

let collect_wme test acc = function
  | Memory.R_wme w -> if test w then w :: acc else acc
  | Memory.R_tok _ -> acc

let collect_tok test acc = function
  | Memory.R_tok t -> if test t then t :: acc else acc
  | Memory.R_wme _ -> acc

let collect_left test acc (e : Memory.left_entry) =
  if test e.l_token then e.l_token :: acc else acc

let count_wme test n = function
  | Memory.R_wme w -> if test w then n + 1 else n
  | Memory.R_tok _ -> n

let count_tok test n = function
  | Memory.R_tok t -> if test t then n + 1 else n
  | Memory.R_wme _ -> n

(* A negative/NCC left entry becomes blocked when its count of matching
   right entries rises to 1, unblocked when it falls to 0. *)
let block test acc (e : Memory.left_entry) =
  if test e.l_token then begin
    e.l_count <- e.l_count + 1;
    if e.l_count = 1 then e.l_token :: acc else acc
  end
  else acc

let unblock test acc (e : Memory.left_entry) =
  if test e.l_token then begin
    e.l_count <- e.l_count - 1;
    if e.l_count = 0 then e.l_token :: acc else acc
  end
  else acc

(* --- staged test compilation ----------------------------------------- *)

(* A staged predicate ['fixed -> 'cand -> bool] specializes on the
   activation operand first; the returned inner closure is what the scan
   loop calls per candidate. *)

let conj f g x =
  let pf = f x and pg = g x in
  fun y -> pf y && pg y

let staged_true =
  let yes _ = true in
  fun _ -> yes

let chain = function
  | [] -> staged_true
  | [ p ] -> p
  | p :: rest -> List.fold_left conj p rest

(* One jtest, compile-time resolved: the comparator is picked per
   relation ONCE (no [eval_relation] dispatch per candidate; [Eq] calls
   [Value.equal] directly). The comparator's argument order is
   (token-side value, wme-side value). *)
type spec = {
  sp_slot : int;
  sp_lfld : int;
  sp_cmp : Value.t -> Value.t -> bool;
  sp_rfld : int;
}

(* Each relation resolves to a direct comparator at compile time — no
   per-candidate dispatch on the relation constructor. The ordered
   relations keep [eval_relation]'s numeric-coercion semantics. *)
let ord rel a b = Cond.eval_relation rel a b

let cmp_of = function
  | Cond.Eq -> Value.equal
  | Cond.Ne -> fun a b -> not (Value.equal a b)
  | (Cond.Lt | Cond.Le | Cond.Gt | Cond.Ge) as rel -> ord rel

let spec_of (jt : jtest) =
  { sp_slot = jt.l_slot; sp_lfld = jt.l_fld; sp_cmp = cmp_of jt.rel; sp_rfld = jt.r_fld }

let tfield tok (s : spec) = Token.field tok ~slot:s.sp_slot ~fld:s.sp_lfld

(* Chains made only of [Eq]/[Ne] — the dominant shape (equality join key
   plus inequality residuals) — compile to branches that call
   [Value.equal] DIRECTLY, the negation folded into an xor against a
   staged bool: zero per-candidate comparator indirection. Anything with
   an ordered relation falls back to the [spec] comparators. *)
type eqne = {
  en_slot : int;
  en_lfld : int;
  en_neg : bool;  (* true = [Ne]: candidate passes when values differ *)
  en_rfld : int;
}

let eqne_of (jt : jtest) =
  match jt.rel with
  | Cond.Eq ->
    Some { en_slot = jt.l_slot; en_lfld = jt.l_fld; en_neg = false; en_rfld = jt.r_fld }
  | Cond.Ne ->
    Some { en_slot = jt.l_slot; en_lfld = jt.l_fld; en_neg = true; en_rfld = jt.r_fld }
  | Cond.Lt | Cond.Le | Cond.Gt | Cond.Ge -> None

let eqne_all jts =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | jt :: rest -> (
      match eqne_of jt with Some e -> go (e :: acc) rest | None -> None)
  in
  go [] jts

let enfield tok (e : eqne) = Token.field tok ~slot:e.en_slot ~fld:e.en_lfld

let eqne_staged_left = function
  | [] -> staged_true
  | [ a ] ->
    let na = a.en_neg in
    fun tok ->
      let va = enfield tok a in
      fun w -> Value.equal va (Wme.field w a.en_rfld) <> na
  | [ a; b ] ->
    let na = a.en_neg and nb = b.en_neg in
    fun tok ->
      let va = enfield tok a and vb = enfield tok b in
      fun w ->
        Value.equal va (Wme.field w a.en_rfld) <> na
        && Value.equal vb (Wme.field w b.en_rfld) <> nb
  | [ a; b; c ] ->
    let na = a.en_neg and nb = b.en_neg and nc = c.en_neg in
    fun tok ->
      let va = enfield tok a and vb = enfield tok b and vc = enfield tok c in
      fun w ->
        Value.equal va (Wme.field w a.en_rfld) <> na
        && Value.equal vb (Wme.field w b.en_rfld) <> nb
        && Value.equal vc (Wme.field w c.en_rfld) <> nc
  | [ a; b; c; d ] ->
    let na = a.en_neg and nb = b.en_neg in
    let nc = c.en_neg and nd = d.en_neg in
    fun tok ->
      let va = enfield tok a and vb = enfield tok b in
      let vc = enfield tok c and vd = enfield tok d in
      fun w ->
        Value.equal va (Wme.field w a.en_rfld) <> na
        && Value.equal vb (Wme.field w b.en_rfld) <> nb
        && Value.equal vc (Wme.field w c.en_rfld) <> nc
        && Value.equal vd (Wme.field w d.en_rfld) <> nd
  | ens ->
    let arr = Array.of_list ens in
    let n = Array.length arr in
    fun tok ->
      let vals = Array.map (fun e -> enfield tok e) arr in
      fun w ->
        let rec go i =
          i >= n
          ||
          let e = arr.(i) in
          Value.equal vals.(i) (Wme.field w e.en_rfld) <> e.en_neg && go (i + 1)
        in
        go 0

let eqne_staged_right = function
  | [] -> staged_true
  | [ a ] ->
    let na = a.en_neg in
    fun w ->
      let va = Wme.field w a.en_rfld in
      fun tok -> Value.equal (enfield tok a) va <> na
  | [ a; b ] ->
    let na = a.en_neg and nb = b.en_neg in
    fun w ->
      let va = Wme.field w a.en_rfld and vb = Wme.field w b.en_rfld in
      fun tok ->
        Value.equal (enfield tok a) va <> na && Value.equal (enfield tok b) vb <> nb
  | [ a; b; c ] ->
    let na = a.en_neg and nb = b.en_neg and nc = c.en_neg in
    fun w ->
      let va = Wme.field w a.en_rfld and vb = Wme.field w b.en_rfld in
      let vc = Wme.field w c.en_rfld in
      fun tok ->
        Value.equal (enfield tok a) va <> na
        && Value.equal (enfield tok b) vb <> nb
        && Value.equal (enfield tok c) vc <> nc
  | [ a; b; c; d ] ->
    let na = a.en_neg and nb = b.en_neg in
    let nc = c.en_neg and nd = d.en_neg in
    fun w ->
      let va = Wme.field w a.en_rfld and vb = Wme.field w b.en_rfld in
      let vc = Wme.field w c.en_rfld and vd = Wme.field w d.en_rfld in
      fun tok ->
        Value.equal (enfield tok a) va <> na
        && Value.equal (enfield tok b) vb <> nb
        && Value.equal (enfield tok c) vc <> nc
        && Value.equal (enfield tok d) vd <> nd
  | ens ->
    let arr = Array.of_list ens in
    let n = Array.length arr in
    fun w ->
      let vals = Array.map (fun e -> Wme.field w e.en_rfld) arr in
      fun tok ->
        let rec go i =
          i >= n
          ||
          let e = arr.(i) in
          Value.equal (enfield tok e) vals.(i) <> e.en_neg && go (i + 1)
        in
        go 0

(* The fused chain, staged on the left token (join/neg LEFT
   activations): ONE closure that extracts every token-side operand at
   activation time, then runs monomorphically per scanned wme. Arities
   1–4 are unrolled (no per-activation combinator allocation, no
   per-candidate chain walk); longer chains fall back to an array loop.
   Test order: all [eq], then all [others]; short-circuit is
   left-to-right. *)
let jtests_staged_left ti =
  let jts = ti.eq @ ti.others in
  match eqne_all jts with
  | Some ens -> eqne_staged_left ens
  | None ->
  match List.map spec_of jts with
  | [] -> staged_true
  | [ a ] ->
    fun tok ->
      let va = tfield tok a in
      fun w -> a.sp_cmp va (Wme.field w a.sp_rfld)
  | [ a; b ] ->
    fun tok ->
      let va = tfield tok a and vb = tfield tok b in
      fun w ->
        a.sp_cmp va (Wme.field w a.sp_rfld) && b.sp_cmp vb (Wme.field w b.sp_rfld)
  | [ a; b; c ] ->
    fun tok ->
      let va = tfield tok a and vb = tfield tok b and vc = tfield tok c in
      fun w ->
        a.sp_cmp va (Wme.field w a.sp_rfld)
        && b.sp_cmp vb (Wme.field w b.sp_rfld)
        && c.sp_cmp vc (Wme.field w c.sp_rfld)
  | [ a; b; c; d ] ->
    fun tok ->
      let va = tfield tok a and vb = tfield tok b in
      let vc = tfield tok c and vd = tfield tok d in
      fun w ->
        a.sp_cmp va (Wme.field w a.sp_rfld)
        && b.sp_cmp vb (Wme.field w b.sp_rfld)
        && c.sp_cmp vc (Wme.field w c.sp_rfld)
        && d.sp_cmp vd (Wme.field w d.sp_rfld)
  | specs ->
    let arr = Array.of_list specs in
    let n = Array.length arr in
    fun tok ->
      let vals = Array.map (fun s -> tfield tok s) arr in
      fun w ->
        let rec go i =
          i >= n
          ||
          let s = arr.(i) in
          s.sp_cmp vals.(i) (Wme.field w s.sp_rfld) && go (i + 1)
        in
        go 0

(* Staged on the right wme (join/neg RIGHT activations): the wme-side
   operands are extracted once, the per-candidate closure reads token
   fields. *)
let jtests_staged_right ti =
  let jts = ti.eq @ ti.others in
  match eqne_all jts with
  | Some ens -> eqne_staged_right ens
  | None ->
  match List.map spec_of jts with
  | [] -> staged_true
  | [ a ] ->
    fun w ->
      let va = Wme.field w a.sp_rfld in
      fun tok -> a.sp_cmp (tfield tok a) va
  | [ a; b ] ->
    fun w ->
      let va = Wme.field w a.sp_rfld and vb = Wme.field w b.sp_rfld in
      fun tok -> a.sp_cmp (tfield tok a) va && b.sp_cmp (tfield tok b) vb
  | [ a; b; c ] ->
    fun w ->
      let va = Wme.field w a.sp_rfld and vb = Wme.field w b.sp_rfld in
      let vc = Wme.field w c.sp_rfld in
      fun tok ->
        a.sp_cmp (tfield tok a) va
        && b.sp_cmp (tfield tok b) vb
        && c.sp_cmp (tfield tok c) vc
  | [ a; b; c; d ] ->
    fun w ->
      let va = Wme.field w a.sp_rfld and vb = Wme.field w b.sp_rfld in
      let vc = Wme.field w c.sp_rfld and vd = Wme.field w d.sp_rfld in
      fun tok ->
        a.sp_cmp (tfield tok a) va
        && b.sp_cmp (tfield tok b) vb
        && c.sp_cmp (tfield tok c) vc
        && d.sp_cmp (tfield tok d) vd
  | specs ->
    let arr = Array.of_list specs in
    let n = Array.length arr in
    fun w ->
      let vals = Array.map (fun s -> Wme.field w s.sp_rfld) arr in
      fun tok ->
        let rec go i =
          i >= n
          ||
          let s = arr.(i) in
          s.sp_cmp (tfield tok s) vals.(i) && go (i + 1)
        in
        go 0

let btest_left (bt : btest) =
  match bt with
  | B_fields { a_slot; a_fld; rel; b_slot; b_fld } -> (
    match rel with
    | Cond.Eq ->
      fun a ->
        let av = Token.field a ~slot:a_slot ~fld:a_fld in
        fun b -> Value.equal av (Token.field b ~slot:b_slot ~fld:b_fld)
    | rel ->
      fun a ->
        let av = Token.field a ~slot:a_slot ~fld:a_fld in
        fun b -> Cond.eval_relation rel av (Token.field b ~slot:b_slot ~fld:b_fld))
  | B_same_wme { a_slot; b_slot } ->
    fun a ->
      let aw = Token.wme a a_slot in
      fun b -> Wme.equal aw (Token.wme b b_slot)

let btest_right (bt : btest) =
  match bt with
  | B_fields { a_slot; a_fld; rel; b_slot; b_fld } ->
    fun b ->
      let bv = Token.field b ~slot:b_slot ~fld:b_fld in
      fun a -> Cond.eval_relation rel (Token.field a ~slot:a_slot ~fld:a_fld) bv
  | B_same_wme { a_slot; b_slot } ->
    fun b ->
      let bw = Token.wme b b_slot in
      fun a -> Wme.equal (Token.wme a a_slot) bw

let btests_staged_left bi = chain (List.map btest_left (bi.b_eq @ bi.b_others))
let btests_staged_right bi = chain (List.map btest_right (bi.b_eq @ bi.b_others))

(* --- specialized khash extraction ------------------------------------- *)

(* A node's hash key folds [mix] over its equality-test fields (in [eq]
   order) starting from the node's seed; an empty [eq] list folds the
   whole hash to the seed. The left and right keys of a matching pair
   coincide, so each activation probes one bucket. *)

let mix acc v = (acc * 31) + Value.hash v land max_int

let id_seed id = (id * 0x9e3779b1) land max_int

let khash_left_prog nid eq =
  let seed = id_seed nid in
  match eq with
  | [] -> fun _ -> seed
  | [ jt ] ->
    let s = jt.l_slot and f = jt.l_fld in
    fun tok -> mix seed (Token.field tok ~slot:s ~fld:f)
  | jts ->
    let pairs = Array.of_list (List.map (fun jt -> (jt.l_slot, jt.l_fld)) jts) in
    fun tok ->
      let acc = ref seed in
      for i = 0 to Array.length pairs - 1 do
        let s, f = pairs.(i) in
        acc := mix !acc (Token.field tok ~slot:s ~fld:f)
      done;
      !acc

let khash_right_prog nid eq =
  let seed = id_seed nid in
  match eq with
  | [] -> fun _ -> seed
  | [ jt ] ->
    let f = jt.r_fld in
    fun w -> mix seed (Wme.field w f)
  | jts ->
    let flds = Array.of_list (List.map (fun jt -> jt.r_fld) jts) in
    fun w ->
      let acc = ref seed in
      for i = 0 to Array.length flds - 1 do
        acc := mix !acc (Wme.field w flds.(i))
      done;
      !acc

let bhash_left_step (bt : btest) =
  match bt with
  | B_fields { a_slot; a_fld; rel = Cond.Eq; _ } ->
    fun acc tok -> mix acc (Token.field tok ~slot:a_slot ~fld:a_fld)
  | B_same_wme { a_slot; _ } ->
    fun acc tok -> (acc * 31) + (Token.wme tok a_slot).Wme.timetag land max_int
  | B_fields _ -> fun acc _ -> acc

let bhash_right_step (bt : btest) =
  match bt with
  | B_fields { b_slot; b_fld; rel = Cond.Eq; _ } ->
    fun acc tok -> mix acc (Token.field tok ~slot:b_slot ~fld:b_fld)
  | B_same_wme { b_slot; _ } ->
    fun acc tok -> (acc * 31) + (Token.wme tok b_slot).Wme.timetag land max_int
  | B_fields _ -> fun acc _ -> acc

let bkhash_prog nid steps =
  let seed = id_seed nid in
  match steps with
  | [] -> fun _ -> seed
  | [ s ] -> fun tok -> s seed tok
  | ss ->
    let arr = Array.of_list ss in
    fun tok ->
      let acc = ref seed in
      for i = 0 to Array.length arr - 1 do
        acc := arr.(i) !acc tok
      done;
      !acc

(* --- the program record ------------------------------------------------ *)

type entry = {
  run_left : Task.flag -> Token.t -> outcome;
  run_right : Task.flag -> Wme.t -> outcome;
  run_rtok : Task.flag -> Token.t -> outcome;
  e_closures : int;  (** closures this program compiled to *)
  e_words : int;     (** modeled heap words of those closures *)
}

(* Invalid-port handlers: a misrouted task is a wiring bug. *)
let bad_left _ _ =
  invalid_arg "Runtime.exec: left token delivered to a right-only node"

let bad_right _ _ =
  invalid_arg "Runtime.exec: wme delivered to a token-only node"

let bad_rtok _ _ =
  invalid_arg "Runtime.exec: right token delivered to a non-binary node"

(* Modeled size of a compiled program (the Codesize report): closures
   counted as the compiler allocates them — one arity-specialized staged
   chain per test direction (capturing k spec records of 4 fields each,
   plus a 2-word closure header), one khash extractor per non-folded
   side, one handler per live port — handlers capture the memory, ids
   and sub-closures. *)
let test_chain_size k = if k = 0 then (0, 0) else (1, (5 * k) + 2)

let handler_words = 8
let khash_words = 4

let sizes kind =
  match kind with
  | Entry -> (1, handler_words)
  | Join ti | Neg ti ->
    let k = List.length ti.eq + List.length ti.others in
    let tc, tw = test_chain_size k in
    let kh = if ti.eq = [] then 0 else 1 in
    ( (2 * tc) + (2 * kh) + 2,
      (2 * tw) + (2 * kh * khash_words) + (2 * handler_words) )
  | Ncc _ -> (1, handler_words)
  | Ncc_partner _ -> (1, handler_words + 2)
  | Bjoin bi ->
    let k = List.length bi.b_eq + List.length bi.b_others in
    let tc, tw = test_chain_size k in
    let kh = if bi.b_eq = [] then 0 else 1 in
    ( (2 * tc) + (2 * kh) + 2,
      (2 * tw) + (2 * kh * khash_words) + (2 * handler_words) )
  | Pnode _ -> (1, handler_words)

(* --- per-kind compilers ------------------------------------------------ *)

(* --- activation shapes --------------------------------------------------- *)

(* Every two-input activation is one of three shapes, each a static
   function the node's per-port handler calls with its compiled pieces:
   the handler is the only closure per port. The line-lock section runs
   inline; the scans stage their test only on a non-empty chain. A live
   left change continues with the memory entry's token, so a delete
   wave retracts through the copies the successors stored (§6.1: each
   delete must find its stored copy), not through re-derived ones. *)

(* Join shape, left port: change the left memory; when the change is
   live (refs crossed 1 or 0), fold the right chain through the staged
   test and extend the live entry's token by each match. On an add that
   is [token] itself; on a delete it is the stored copy the successors
   extended, so their equality checks (a child's memory probe, an NCC
   prefix, the conflict set) stop at the first parent the two tokens
   physically share. A local ref carries it and allocates nothing. *)
let join_left n mem ~stage ~step ~extend kh flag token =
  let nid = n.id in
  let line = Memory.line_of mem ~khash:kh in
  let locked = enter mem ~line in
  let scanned = ref 0 in
  let stored = ref token in
  match
    let e =
      match flag with
      | Task.Add -> Memory.left_insert mem ~node:nid ~khash:kh token ~count:0
      | Task.Delete -> Memory.left_delete mem ~node:nid ~khash:kh token
    in
    if e == Memory.inert then []
    else begin
      stored := e.Memory.l_token;
      scanned := Memory.right_population mem ~khash:kh;
      Memory.right_fold mem ~node:nid ~khash:kh ~stage token step []
    end
  with
  | ms ->
    leave mem ~line locked;
    sectioned ~cost_class:Two_input_task ~node:nid ~line ~locked ~scanned:!scanned
      (emit_extended n flag extend !stored ms)
  | exception ex ->
    leave mem ~line locked;
    raise ex

(* Join shape, right port: change the right memory with [payload]; when
   live, fold the left chain through the test staged on [x]. *)
let join_right n mem ~stage ~extend kh flag x payload =
  let nid = n.id in
  let line = Memory.line_of mem ~khash:kh in
  let locked = enter mem ~line in
  let scanned = ref 0 in
  match
    let live =
      match flag with
      | Task.Add -> Memory.right_add mem ~node:nid ~khash:kh payload
      | Task.Delete -> Memory.right_remove mem ~node:nid ~khash:kh payload
    in
    if live then begin
      scanned := Memory.left_population mem ~khash:kh;
      Memory.left_fold mem ~node:nid ~khash:kh ~stage x collect_left []
    end
    else []
  with
  | ms ->
    leave mem ~line locked;
    sectioned ~cost_class:Two_input_task ~node:nid ~line ~locked ~scanned:!scanned (emit_extended n flag extend x ms)
  | exception ex ->
    leave mem ~line locked;
    raise ex

(* Negative shape, left port (negative and NCC nodes): an add counts the
   token's matching right entries and stores the count with the token;
   the token passes when it is live and unblocked. A passing delete
   emits the entry's stored token, as {!join_left} extends it. *)
let neg_left n mem ~stage ~step kh flag token =
  let nid = n.id in
  let line = Memory.line_of mem ~khash:kh in
  let locked = enter mem ~line in
  let scanned = ref 0 in
  let stored = ref token in
  match
    match flag with
    | Task.Add ->
      scanned := Memory.right_population mem ~khash:kh;
      let count = Memory.right_fold mem ~node:nid ~khash:kh ~stage token step 0 in
      Memory.left_insert mem ~node:nid ~khash:kh token ~count != Memory.inert
      && count = 0
    | Task.Delete ->
      let e = Memory.left_delete mem ~node:nid ~khash:kh token in
      stored := e.Memory.l_token;
      e != Memory.inert && e.Memory.l_count = 0
  with
  | pass ->
    leave mem ~line locked;
    sectioned ~cost_class:Two_input_task ~node:nid ~line ~locked ~scanned:!scanned
      (if pass then emit n flag !stored else [||])
  | exception ex ->
    leave mem ~line locked;
    raise ex

(* Negative shape, right port (negative nodes and NCC partners): a live
   right change moves the counts of the matching left entries of [node];
   the tokens it blocks (unblocks) leave [n] as deletes (adds). *)
let neg_right n mem ~node ~stage kh flag x payload =
  let line = Memory.line_of mem ~khash:kh in
  let locked = enter mem ~line in
  let scanned = ref 0 in
  match
    match flag with
    | Task.Add ->
      if Memory.right_add mem ~node ~khash:kh payload then begin
        scanned := Memory.left_population mem ~khash:kh;
        Memory.left_fold mem ~node ~khash:kh ~stage x block []
      end
      else []
    | Task.Delete ->
      if Memory.right_remove mem ~node ~khash:kh payload then begin
        scanned := Memory.left_population mem ~khash:kh;
        Memory.left_fold mem ~node ~khash:kh ~stage x unblock []
      end
      else []
  with
  | toks ->
    leave mem ~line locked;
    let crossed = match flag with Task.Add -> Task.Delete | Task.Delete -> Task.Add in
    sectioned ~cost_class:Two_input_task ~node ~line ~locked ~scanned:!scanned (emit_tokens n crossed toks)
  | exception ex ->
    leave mem ~line locked;
    raise ex

(* static [extend]s for emit_extended *)
let extend_by w tok = Token.extend tok w

(* an NCC's left test: the subnetwork result extends the token *)
let extends_token token =
  let tlen = Token.length token in
  fun sub -> Token.equal (Token.prefix sub tlen) token

(* --- per-kind compilers ------------------------------------------------ *)

let compile_entry net n =
  let mem = net.mem in
  let nid = n.id in
  let seed = id_seed nid in
  let run_right flag w =
    let kh = (seed + Wme.hash w) land max_int in
    let line = Memory.line_of mem ~khash:kh in
    let locked = enter mem ~line in
    match
      match flag with
      | Task.Add -> Memory.right_add mem ~node:nid ~khash:kh (Memory.R_wme w)
      | Task.Delete -> Memory.right_remove mem ~node:nid ~khash:kh (Memory.R_wme w)
    with
    | live ->
      leave mem ~line locked;
      sectioned ~cost_class:Entry_task ~node:nid ~line ~locked ~scanned:0
        (if live then emit n flag (Token.singleton w) else [||])
    | exception ex ->
      leave mem ~line locked;
      raise ex
  in
  let e_closures, e_words = sizes n.kind in
  { run_left = bad_left; run_right; run_rtok = bad_rtok; e_closures; e_words }

let compile_join net n ti =
  let mem = net.mem in
  let lkh = khash_left_prog n.id ti.eq in
  let rkh = khash_right_prog n.id ti.eq in
  let ltest = jtests_staged_left ti in
  let rtest = jtests_staged_right ti in
  let run_left flag token =
    join_left n mem ~stage:ltest ~step:collect_wme ~extend:Token.extend (lkh token) flag
      token
  in
  let run_right flag w =
    join_right n mem ~stage:rtest ~extend:extend_by (rkh w) flag w (Memory.R_wme w)
  in
  let e_closures, e_words = sizes n.kind in
  { run_left; run_right; run_rtok = bad_rtok; e_closures; e_words }

let compile_neg net n ti =
  let mem = net.mem in
  let nid = n.id in
  let lkh = khash_left_prog nid ti.eq in
  let rkh = khash_right_prog nid ti.eq in
  let ltest = jtests_staged_left ti in
  let rtest = jtests_staged_right ti in
  let run_left flag token =
    neg_left n mem ~stage:ltest ~step:count_wme (lkh token) flag token
  in
  let run_right flag w =
    neg_right n mem ~node:nid ~stage:rtest (rkh w) flag w (Memory.R_wme w)
  in
  let e_closures, e_words = sizes n.kind in
  { run_left; run_right; run_rtok = bad_rtok; e_closures; e_words }

let compile_ncc net n =
  let mem = net.mem in
  let seed = id_seed n.id in
  let run_left flag token =
    neg_left n mem ~stage:extends_token ~step:count_tok
      ((seed + Token.hash token) land max_int)
      flag token
  in
  let e_closures, e_words = sizes n.kind in
  { run_left; run_right = bad_right; run_rtok = bad_rtok; e_closures; e_words }

let compile_partner net n ~ncc ~prefix_len =
  let mem = net.mem in
  let ncc_node = Network.node net ncc in
  let seed = id_seed ncc in
  let run_rtok flag subtok =
    let prefix = Token.prefix subtok prefix_len in
    neg_right ncc_node mem ~node:ncc ~stage:Token.equal
      ((seed + Token.hash prefix) land max_int)
      flag prefix (Memory.R_tok subtok)
  in
  let e_closures, e_words = sizes n.kind in
  { run_left = bad_left; run_right = bad_right; run_rtok; e_closures; e_words }

let compile_bjoin net n bi =
  let mem = net.mem in
  let lkh = bkhash_prog n.id (List.map bhash_left_step bi.b_eq) in
  let rkh = bkhash_prog n.id (List.map bhash_right_step bi.b_eq) in
  let ltest = btests_staged_left bi in
  let rtest = btests_staged_right bi in
  let drop = bi.right_drop in
  let concat_right token rt = Token.concat token (Token.suffix rt drop) in
  let concat_left rt lt = Token.concat lt (Token.suffix rt drop) in
  let run_left flag token =
    join_left n mem ~stage:ltest ~step:collect_tok ~extend:concat_right (lkh token) flag
      token
  in
  let run_rtok flag rtok =
    join_right n mem ~stage:rtest ~extend:concat_left (rkh rtok) flag rtok
      (Memory.R_tok rtok)
  in
  let e_closures, e_words = sizes n.kind in
  { run_left; run_right = bad_right; run_rtok; e_closures; e_words }

let compile_pnode net n pi =
  let cs = net.cs in
  let name = pi.production.Production.name in
  let perm = pi.perm in
  let run_left flag token =
    let inst_token =
      match perm with None -> token | Some p -> Token.permute token p
    in
    let inst = { Conflict_set.prod = name; token = inst_token } in
    (match flag with
    | Task.Add -> Conflict_set.add cs inst
    | Task.Delete -> Conflict_set.remove cs inst);
    { absorbed with insts = [ (flag, inst) ]; cost_class = Pnode_task; acc_node = n.id }
  in
  let e_closures, e_words = sizes n.kind in
  { run_left; run_right = bad_right; run_rtok = bad_rtok; e_closures; e_words }

let compile net n =
  match n.kind with
  | Entry -> compile_entry net n
  | Join ti -> compile_join net n ti
  | Neg ti -> compile_neg net n ti
  | Ncc _ -> compile_ncc net n
  | Ncc_partner { ncc; prefix_len } -> compile_partner net n ~ncc ~prefix_len
  | Bjoin bi -> compile_bjoin net n bi
  | Pnode pi -> compile_pnode net n pi

(* --- the jumptable ----------------------------------------------------- *)

type table = {
  mutable slots : entry option array;
  mutable count : int;
}

type Network.jumptable += Table of table

let table net =
  match net.jumptable with Table t -> Some t | _ -> None

let get_table net =
  match net.jumptable with
  | Table t -> t
  | _ ->
    let t = { slots = Array.make 64 None; count = 0 } in
    net.jumptable <- Table t;
    t

(* Grow by doubling; the table record itself never changes identity, so
   a run-time addition extends the dispatch in place (§5.1) instead of
   rebuilding the network. *)
let ensure_slot t i =
  let cap = Array.length t.slots in
  if i >= cap then begin
    let ncap = ref (cap * 2) in
    while i >= !ncap do
      ncap := !ncap * 2
    done;
    let slots = Array.make !ncap None in
    Array.blit t.slots 0 slots 0 cap;
    t.slots <- slots
  end

let install net nid =
  let t = get_table net in
  ensure_slot t nid;
  (match t.slots.(nid) with Some _ -> () | None -> t.count <- t.count + 1);
  t.slots.(nid) <- Some (compile net (Network.node net nid))

let compile_new net ids = List.iter (install net) ids

let clear_node net nid =
  match net.jumptable with
  | Table t when nid < Array.length t.slots ->
    (match t.slots.(nid) with
    | Some _ ->
      t.slots.(nid) <- None;
      t.count <- t.count - 1
    | None -> ())
  | _ -> ()

let find net nid =
  match net.jumptable with
  | Table t -> if nid < Array.length t.slots then t.slots.(nid) else None
  | _ -> None

let run e task =
  match task with
  | Task.Left { flag; token; _ } -> e.run_left flag token
  | Task.Right { flag; wme; _ } -> e.run_right flag wme
  | Task.Rtok { flag; token; _ } -> e.run_rtok flag token

(* --- replay (update phase, §5.2) ----------------------------------------- *)

(* Recompute a two-input node's join from its stored left and right
   state, probing the right memory with the same khash and staged test
   the node's program runs. The closures are built here, per replay,
   rather than kept on the program record: replay is rare (once per
   last-shared node of an added production) and a per-node field would
   cost heap for every compiled node. *)
let rejoin mem nid ~khash ~visit =
  let lefts = ref [] in
  Memory.iter_node_left mem ~node:nid (fun e -> lefts := e.Memory.l_token :: !lefts);
  List.iter
    (fun tok ->
      let kh = khash tok in
      let line = Memory.line_of mem ~khash:kh in
      let each = visit tok in
      Memory.locked mem ~line (fun () ->
          ignore (Memory.right_iter mem ~node:nid ~khash:kh each)))
    !lefts

let replay_parent net ~parent ~child ~port =
  let mem = net.mem in
  let out = ref [] in
  let push tok = out := task_to Task.Add tok (child, port) :: !out in
  (match parent.kind with
  | Entry ->
    Memory.iter_node_right mem ~node:parent.id (fun payload ->
        match payload with
        | Memory.R_wme w -> push (Token.singleton w)
        | Memory.R_tok _ -> ())
  | Join ti ->
    let test = jtests_staged_left ti in
    rejoin mem parent.id ~khash:(khash_left_prog parent.id ti.eq) ~visit:(fun tok ->
        let pass = test tok in
        function
        | Memory.R_wme w -> if pass w then push (Token.extend tok w)
        | Memory.R_tok _ -> ())
  | Neg _ | Ncc _ ->
    Memory.iter_node_left mem ~node:parent.id (fun e ->
        if e.Memory.l_count = 0 then push e.Memory.l_token)
  | Bjoin bi ->
    let test = btests_staged_left bi in
    let khash = bkhash_prog parent.id (List.map bhash_left_step bi.b_eq) in
    rejoin mem parent.id ~khash ~visit:(fun tok ->
        let pass = test tok in
        function
        | Memory.R_tok rt ->
          if pass rt then push (Token.concat tok (Token.suffix rt bi.right_drop))
        | Memory.R_wme _ -> ())
  | Ncc_partner _ | Pnode _ ->
    invalid_arg "Program.replay_parent: node kind stores no replayable output");
  List.rev !out

(* --- introspection ----------------------------------------------------- *)

let table_capacity t = Array.length t.slots

let compiled_count net =
  match net.jumptable with Table t -> t.count | _ -> 0

let node_closures net nid =
  match find net nid with Some e -> e.e_closures | None -> 0

let node_words net nid =
  match find net nid with Some e -> e.e_words | None -> 0
