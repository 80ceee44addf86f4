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

type access = {
  acc_node : int;
  acc_line : int;
  acc_write : bool;
  acc_locked : bool;
}

type outcome = {
  children : Task.t array;
  scanned : int;
  matched : int;
  insts : (Task.flag * Conflict_set.inst) list;
  accesses : access list;
}

let no_children =
  { children = [||]; scanned = 0; matched = 0; insts = []; accesses = [] }

(* Fault-injection hook for the race detector's self-test: when set, exec
   sections run WITHOUT taking the line lock (and report their accesses as
   unlocked). Never enable outside analysis tests. *)
let elide = ref false
let set_lock_elision b = elide := b
let lock_elision () = !elide

let with_line mem ~line f = if !elide then f () else Memory.locked mem ~line f

let access ~node ~line =
  { acc_node = node; acc_line = line; acc_write = true; acc_locked = not !elide }

(* --- fan-out ---------------------------------------------------------- *)

let task_to flag token (sid, port) =
  match port with
  | P_left -> Task.Left { node = sid; flag; token }
  | P_right -> Task.Rtok { node = sid; flag; token }

let emit n flag token = Array.map (task_to flag token) n.succs

(* Negative-node transitions carry their own flag per token. *)
let emit_transitions n transitions =
  let succs = n.succs in
  let ns = Array.length succs in
  match transitions with
  | [] -> [||]
  | (f0, t0) :: _ when ns > 0 ->
    let k = List.length transitions in
    let out = Array.make (k * ns) (task_to f0 t0 succs.(0)) in
    List.iteri
      (fun ti (fl, tok) ->
        for si = 0 to ns - 1 do
          out.((ti * ns) + si) <- task_to fl tok succs.(si)
        done)
      transitions;
    out
  | _ :: _ -> [||]

(* Fused extend+emit for join scans: matched operands arrive as a list
   in REVERSE scan order (one cons per match — an empty scan allocates
   nothing); rows are filled back-to-front so each extended token fans
   to every successor in registration order — the same sequence as
   emitting each extended token in scan order, without materializing
   the token list. Token extension is skipped entirely when the node
   has no successors (extension is pure, so nothing observable is
   lost). *)
let emit_extended n flag ~extend rev_ms k =
  let succs = n.succs in
  let ns = Array.length succs in
  if k = 0 || ns = 0 then [||]
  else begin
    let rec fill out ti = function
      | [] -> out
      | m :: rest ->
        let tok = extend m in
        let row = ti * ns in
        for si = 0 to ns - 1 do
          out.(row + si) <- task_to flag tok succs.(si)
        done;
        fill out (ti - 1) rest
    in
    match rev_ms with
    | [] -> [||]
    | last :: _ ->
      let out = Array.make (k * ns) (task_to flag (extend last) succs.(0)) in
      fill out (k - 1) rev_ms
  end

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
      Array.iter
        (fun (s, f) -> acc := mix !acc (Token.field tok ~slot:s ~fld:f))
        pairs;
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
      Array.iter (fun f -> acc := mix !acc (Wme.field w f)) flds;
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
      Array.iter (fun s -> acc := s !acc tok) arr;
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

let compile_entry net n =
  let mem = net.mem in
  let nid = n.id in
  let seed = id_seed nid in
  let run_right flag w =
    let kh = (seed + Wme.hash w) land max_int in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let transitioned =
      with_line mem ~line (fun () ->
          match flag with
          | Task.Add -> Memory.right_add mem ~node:nid ~khash:kh (Memory.R_wme w)
          | Task.Delete -> Memory.right_remove mem ~node:nid ~khash:kh (Memory.R_wme w))
    in
    if not transitioned then { no_children with accesses = [ acc ] }
    else
      { children = emit n flag (Token.singleton w); scanned = 0; matched = 1;
        insts = []; accesses = [ acc ] }
  in
  let e_closures, e_words = sizes n.kind in
  { run_left = bad_left; run_right; run_rtok = bad_rtok; e_closures; e_words }

let compile_join net n ti =
  let mem = net.mem in
  let nid = n.id in
  let lkh = khash_left_prog nid ti.eq in
  let rkh = khash_right_prog nid ti.eq in
  let ltest = jtests_staged_left ti in
  let rtest = jtests_staged_right ti in
  let run_left flag token =
    let kh = lkh token in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let matches = ref [] in
    let nm = ref 0 in
    let scanned = ref 0 in
    let live =
      with_line mem ~line (fun () ->
          let live =
            match flag with
            | Task.Add -> (
              match Memory.left_add mem ~node:nid ~khash:kh token ~count:0 with
              | `Activated _ -> true
              | `Inert -> false)
            | Task.Delete -> (
              match Memory.left_remove mem ~node:nid ~khash:kh token with
              | `Deactivated _ -> true
              | `Inert -> false)
          in
          if live then begin
            let test = ltest token in
            scanned :=
              Memory.right_iter mem ~node:nid ~khash:kh (fun payload ->
                  match payload with
                  | Memory.R_wme w ->
                    if test w then begin
                      matches := w :: !matches;
                      incr nm
                    end
                  | Memory.R_tok _ -> ())
          end;
          live)
    in
    if not live then { no_children with accesses = [ acc ] }
    else
      { children =
          emit_extended n flag ~extend:(fun w -> Token.extend token w) !matches !nm;
        scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }
  in
  let run_right flag w =
    let kh = rkh w in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let matches = ref [] in
    let nm = ref 0 in
    let scanned = ref 0 in
    let live =
      with_line mem ~line (fun () ->
          let live =
            match flag with
            | Task.Add -> Memory.right_add mem ~node:nid ~khash:kh (Memory.R_wme w)
            | Task.Delete -> Memory.right_remove mem ~node:nid ~khash:kh (Memory.R_wme w)
          in
          if live then begin
            let test = rtest w in
            scanned :=
              Memory.left_iter mem ~node:nid ~khash:kh (fun e ->
                  if test e.Memory.l_token then begin
                    matches := e.Memory.l_token :: !matches;
                    incr nm
                  end)
          end;
          live)
    in
    if not live then { no_children with accesses = [ acc ] }
    else
      { children =
          emit_extended n flag ~extend:(fun tok -> Token.extend tok w) !matches !nm;
        scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }
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
    let kh = lkh token in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let pass = ref false in
    let scanned = ref 0 in
    with_line mem ~line (fun () ->
        match flag with
        | Task.Add ->
          let test = ltest token in
          let count = ref 0 in
          scanned :=
            Memory.right_iter mem ~node:nid ~khash:kh (fun payload ->
                match payload with
                | Memory.R_wme w -> if test w then incr count
                | Memory.R_tok _ -> ());
          (match Memory.left_add mem ~node:nid ~khash:kh token ~count:!count with
          | `Activated _ -> pass := !count = 0
          | `Inert -> ())
        | Task.Delete -> (
          match Memory.left_remove mem ~node:nid ~khash:kh token with
          | `Deactivated e -> pass := e.Memory.l_count = 0
          | `Inert -> ()));
    if !pass then
      { children = emit n flag token; scanned = !scanned; matched = 1;
        insts = []; accesses = [ acc ] }
    else { no_children with scanned = !scanned; accesses = [ acc ] }
  in
  let run_right flag w =
    let kh = rkh w in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let transitions = ref [] in
    let nt = ref 0 in
    let scanned = ref 0 in
    with_line mem ~line (fun () ->
        match flag with
        | Task.Add ->
          if Memory.right_add mem ~node:nid ~khash:kh (Memory.R_wme w) then begin
            let test = rtest w in
            scanned :=
              Memory.left_iter mem ~node:nid ~khash:kh (fun e ->
                  if test e.Memory.l_token then begin
                    e.Memory.l_count <- e.Memory.l_count + 1;
                    if e.Memory.l_count = 1 then begin
                      transitions := (Task.Delete, e.Memory.l_token) :: !transitions;
                      incr nt
                    end
                  end)
          end
        | Task.Delete ->
          if Memory.right_remove mem ~node:nid ~khash:kh (Memory.R_wme w) then begin
            let test = rtest w in
            scanned :=
              Memory.left_iter mem ~node:nid ~khash:kh (fun e ->
                  if test e.Memory.l_token then begin
                    e.Memory.l_count <- e.Memory.l_count - 1;
                    if e.Memory.l_count = 0 then begin
                      transitions := (Task.Add, e.Memory.l_token) :: !transitions;
                      incr nt
                    end
                  end)
          end);
    { children = emit_transitions n (List.rev !transitions); scanned = !scanned;
      matched = !nt; insts = []; accesses = [ acc ] }
  in
  let e_closures, e_words = sizes n.kind in
  { run_left; run_right; run_rtok = bad_rtok; e_closures; e_words }

let compile_ncc net n =
  let mem = net.mem in
  let nid = n.id in
  let seed = id_seed nid in
  let run_left flag token =
    let kh = (seed + Token.hash token) land max_int in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let pass = ref false in
    let scanned = ref 0 in
    with_line mem ~line (fun () ->
        match flag with
        | Task.Add ->
          let count = ref 0 in
          let tlen = Token.length token in
          scanned :=
            Memory.right_iter mem ~node:nid ~khash:kh (fun payload ->
                match payload with
                | Memory.R_tok sub ->
                  if Token.equal (Token.prefix sub tlen) token then incr count
                | Memory.R_wme _ -> ());
          (match Memory.left_add mem ~node:nid ~khash:kh token ~count:!count with
          | `Activated _ -> pass := !count = 0
          | `Inert -> ())
        | Task.Delete -> (
          match Memory.left_remove mem ~node:nid ~khash:kh token with
          | `Deactivated e -> pass := e.Memory.l_count = 0
          | `Inert -> ()));
    if !pass then
      { children = emit n flag token; scanned = !scanned; matched = 1;
        insts = []; accesses = [ acc ] }
    else { no_children with scanned = !scanned; accesses = [ acc ] }
  in
  let e_closures, e_words = sizes n.kind in
  { run_left; run_right = bad_right; run_rtok = bad_rtok; e_closures; e_words }

let compile_partner net n ~ncc ~prefix_len =
  let mem = net.mem in
  let ncc_node = Network.node net ncc in
  let seed = id_seed ncc in
  let run_rtok flag subtok =
    let prefix = Token.prefix subtok prefix_len in
    let kh = (seed + Token.hash prefix) land max_int in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:ncc ~line in
    let transitions = ref [] in
    let nt = ref 0 in
    let scanned = ref 0 in
    with_line mem ~line (fun () ->
        match flag with
        | Task.Add ->
          if Memory.right_add mem ~node:ncc ~khash:kh (Memory.R_tok subtok) then
            scanned :=
              Memory.left_iter mem ~node:ncc ~khash:kh (fun e ->
                  if Token.equal e.Memory.l_token prefix then begin
                    e.Memory.l_count <- e.Memory.l_count + 1;
                    if e.Memory.l_count = 1 then begin
                      transitions := (Task.Delete, e.Memory.l_token) :: !transitions;
                      incr nt
                    end
                  end)
        | Task.Delete ->
          if Memory.right_remove mem ~node:ncc ~khash:kh (Memory.R_tok subtok) then
            scanned :=
              Memory.left_iter mem ~node:ncc ~khash:kh (fun e ->
                  if Token.equal e.Memory.l_token prefix then begin
                    e.Memory.l_count <- e.Memory.l_count - 1;
                    if e.Memory.l_count = 0 then begin
                      transitions := (Task.Add, e.Memory.l_token) :: !transitions;
                      incr nt
                    end
                  end));
    { children = emit_transitions ncc_node (List.rev !transitions);
      scanned = !scanned; matched = !nt; insts = []; accesses = [ acc ] }
  in
  let e_closures, e_words = sizes n.kind in
  { run_left = bad_left; run_right = bad_right; run_rtok; e_closures; e_words }

let compile_bjoin net n bi =
  let mem = net.mem in
  let nid = n.id in
  let lkh = bkhash_prog nid (List.map bhash_left_step bi.b_eq) in
  let rkh = bkhash_prog nid (List.map bhash_right_step bi.b_eq) in
  let ltest = btests_staged_left bi in
  let rtest = btests_staged_right bi in
  let drop = bi.right_drop in
  let run_left flag token =
    let kh = lkh token in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let matches = ref [] in
    let nm = ref 0 in
    let scanned = ref 0 in
    let live =
      with_line mem ~line (fun () ->
          let live =
            match flag with
            | Task.Add -> (
              match Memory.left_add mem ~node:nid ~khash:kh token ~count:0 with
              | `Activated _ -> true
              | `Inert -> false)
            | Task.Delete -> (
              match Memory.left_remove mem ~node:nid ~khash:kh token with
              | `Deactivated _ -> true
              | `Inert -> false)
          in
          if live then begin
            let test = ltest token in
            scanned :=
              Memory.right_iter mem ~node:nid ~khash:kh (fun payload ->
                  match payload with
                  | Memory.R_tok rt ->
                    if test rt then begin
                      matches := rt :: !matches;
                      incr nm
                    end
                  | Memory.R_wme _ -> ())
          end;
          live)
    in
    if not live then { no_children with accesses = [ acc ] }
    else
      { children =
          emit_extended n flag !matches !nm
            ~extend:(fun rt -> Token.concat token (Token.suffix rt drop));
        scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }
  in
  let run_rtok flag rtok =
    let kh = rkh rtok in
    let line = Memory.line_of mem ~khash:kh in
    let acc = access ~node:nid ~line in
    let matches = ref [] in
    let nm = ref 0 in
    let scanned = ref 0 in
    let live =
      with_line mem ~line (fun () ->
          let live =
            match flag with
            | Task.Add -> Memory.right_add mem ~node:nid ~khash:kh (Memory.R_tok rtok)
            | Task.Delete ->
              Memory.right_remove mem ~node:nid ~khash:kh (Memory.R_tok rtok)
          in
          if live then begin
            let test = rtest rtok in
            scanned :=
              Memory.left_iter mem ~node:nid ~khash:kh (fun e ->
                  if test e.Memory.l_token then begin
                    matches := e.Memory.l_token :: !matches;
                    incr nm
                  end)
          end;
          live)
    in
    if not live then { no_children with accesses = [ acc ] }
    else
      { children =
          emit_extended n flag !matches !nm
            ~extend:(fun lt -> Token.concat lt (Token.suffix rtok drop));
        scanned = !scanned; matched = !nm; insts = []; accesses = [ acc ] }
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
    { no_children with matched = 1; insts = [ (flag, inst) ] }
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
