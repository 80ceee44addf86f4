(* PR 3 kernel tests: the hot-path overhaul (indexed memories, O(1)
   tokens, alpha dispatch, work-stealing deques) must not change any
   reproduced measurement. The goldens pinned here were captured from
   the pre-overhaul kernel; the contention tests prove the indexed
   memory keeps the refcount-annihilation schedule-independence
   invariant under real multi-domain interleaving. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine
open Psme_check
open Psme_workloads

(* --- work-stealing deque ---------------------------------------------- *)

(* n sequenced calls, in order (a bare list literal would evaluate its
   elements right to left) *)
let rec take_n f n = if n = 0 then [] else let x = f () in x :: take_n f (n - 1)

let test_deque_owner_lifo () =
  let q = Ws_deque.create ~capacity:4 () in
  List.iter (Ws_deque.push q) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list (option int)))
    "pop order is LIFO then empty"
    [ Some 5; Some 4; Some 3; Some 2; Some 1; None ]
    (take_n (fun () -> Ws_deque.pop q) 6)

let test_deque_steal_fifo () =
  let q = Ws_deque.create () in
  List.iter (Ws_deque.push q) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list (option int)))
    "thieves take the oldest" [ Some 1; Some 2 ]
    (take_n (fun () -> Ws_deque.steal q) 2);
  Alcotest.(check (list (option int)))
    "owner keeps the newest" [ Some 5; Some 4; Some 3; None ]
    (take_n (fun () -> Ws_deque.pop q) 4)

let test_deque_stats_provenance () =
  let q = Ws_deque.create ~capacity:4 () in
  List.iter (Ws_deque.push q) [ 1; 2; 3; 4 ];
  (* two attributed steals by thief 2, one by thief 5, one anonymous *)
  let s1 = Ws_deque.steal ~thief:2 q in
  let s2 = Ws_deque.steal ~thief:2 q in
  let s3 = Ws_deque.steal ~thief:5 q in
  let s4 = Ws_deque.steal q in
  Alcotest.(check (list (option int)))
    "attributed steals succeed"
    [ Some 1; Some 2; Some 3; Some 4 ]
    [ s1; s2; s3; s4 ];
  (* empty probes count as failed steals, attributed or not *)
  Alcotest.(check (option int)) "empty probe" None (Ws_deque.steal ~thief:2 q);
  Alcotest.(check (option int)) "empty probe" None (Ws_deque.steal q);
  let s = Ws_deque.stats q in
  Alcotest.(check int) "pushes" 4 s.Ws_deque.pushes;
  Alcotest.(check int) "steals" 4 s.Ws_deque.steals;
  Alcotest.(check int) "failed steals" 2 s.Ws_deque.failed_steals;
  Alcotest.(check int) "no CAS failures uncontended" 0 s.Ws_deque.steal_cas_failures;
  Alcotest.(check (list (pair int int)))
    "victim->thief provenance (anonymous steals unattributed)"
    [ (2, 2); (5, 1) ]
    (Ws_deque.provenance q)

let test_deque_growth () =
  let q = Ws_deque.create ~capacity:4 () in
  let n = 10_000 in
  for i = 1 to n do
    Ws_deque.push q i
  done;
  Alcotest.(check int) "size after pushes" n (Ws_deque.size q);
  let sum = ref 0 in
  let rec drain () =
    match Ws_deque.pop q with
    | Some v ->
      sum := !sum + v;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all elements survived growth" (n * (n + 1) / 2) !sum

let test_deque_concurrent_steals () =
  (* one owner producing and popping, three thieves stealing: every
     element is consumed exactly once *)
  let q = Ws_deque.create ~capacity:16 () in
  let n = 20_000 in
  let remaining = Atomic.make n in
  let consume take =
    let mine = ref [] in
    while Atomic.get remaining > 0 do
      match take () with
      | Some v ->
        mine := v :: !mine;
        Atomic.decr remaining
      | None -> Stdlib.Domain.cpu_relax ()
    done;
    !mine
  in
  let owner =
    Stdlib.Domain.spawn (fun () ->
        let early = ref [] in
        for i = 0 to n - 1 do
          Ws_deque.push q i;
          (* interleave some owner pops with the production *)
          if i mod 3 = 0 then
            match Ws_deque.pop q with
            | Some v ->
              early := v :: !early;
              Atomic.decr remaining
            | None -> ()
        done;
        !early @ consume (fun () -> Ws_deque.pop q))
  in
  let thieves =
    List.init 3 (fun _ -> Stdlib.Domain.spawn (fun () -> consume (fun () -> Ws_deque.steal q)))
  in
  (* the owner's interleaved pops return their values via a list per
     iteration; recover them by draining the consumed multiset *)
  let got = Stdlib.Domain.join owner @ List.concat_map Stdlib.Domain.join thieves in
  let seen = Array.make n 0 in
  List.iter (fun v -> seen.(v) <- seen.(v) + 1) got;
  Alcotest.(check bool)
    "every element consumed exactly once" true
    (Array.for_all (fun c -> c = 1) seen)

(* --- access-histogram units ------------------------------------------- *)

let mk_tok tt =
  Token.singleton
    (Wme.make ~cls:(Sym.intern "c") ~fields:[| Value.nil |] ~timetag:tt)

let with_line mem ~khash f =
  Memory.locked mem ~line:(Memory.line_of mem ~khash) f

let test_histogram_units () =
  (* lines = 8, so khash k < 8 lands on line k. Cycle 1 gives line 0
     three left accesses (add/iter/remove) and line 1 one; cycle 2 gives
     line 2 two and line 1 one more. Each line contributes its access
     count k to bin k — the histogram counts accesses, not entries. *)
  let mem = Memory.create ~lines:8 () in
  let t1 = mk_tok 1 and t2 = mk_tok 2 in
  with_line mem ~khash:0 (fun () ->
      ignore (Memory.left_add mem ~node:1 ~khash:0 t1 ~count:0);
      ignore (Memory.left_iter mem ~node:1 ~khash:0 (fun _ -> ()));
      ignore (Memory.left_remove mem ~node:1 ~khash:0 t1));
  with_line mem ~khash:1 (fun () ->
      ignore (Memory.left_add mem ~node:1 ~khash:1 t2 ~count:0));
  Memory.reset_cycle_stats mem;
  Alcotest.(check (list (pair int int)))
    "cycle 1: line with 3 accesses adds 3 to bin 3"
    [ (1, 1); (3, 3) ]
    (Memory.access_histogram mem);
  with_line mem ~khash:2 (fun () ->
      ignore (Memory.left_add mem ~node:1 ~khash:2 (mk_tok 3) ~count:0);
      ignore (Memory.left_iter mem ~node:1 ~khash:2 (fun _ -> ())));
  with_line mem ~khash:1 (fun () ->
      ignore (Memory.left_iter mem ~node:1 ~khash:1 (fun _ -> ())));
  Memory.reset_cycle_stats mem;
  Alcotest.(check (list (pair int int)))
    "cycle 2 accumulates; sum of bins = total left accesses"
    [ (1, 2); (2, 2); (3, 3) ]
    (Memory.access_histogram mem);
  Alcotest.(check int) "total left accesses" 7 (Memory.total_left_accesses mem);
  Memory.clear_access_histogram mem;
  Alcotest.(check (list (pair int int))) "clear" [] (Memory.access_histogram mem)

(* --- multi-domain contention on the indexed memory -------------------- *)

type mem_op =
  | Ladd of int * int * Token.t
  | Lrem of int * int * Token.t
  | Liter of int * int
  | Radd of int * int * Memory.right_payload
  | Rrem of int * int * Memory.right_payload

let apply_op mem op =
  match op with
  | Ladd (node, khash, tok) ->
    with_line mem ~khash (fun () ->
        ignore (Memory.left_add mem ~node ~khash tok ~count:0))
  | Lrem (node, khash, tok) ->
    with_line mem ~khash (fun () -> ignore (Memory.left_remove mem ~node ~khash tok))
  | Liter (node, khash) ->
    with_line mem ~khash (fun () ->
        ignore (Memory.left_iter mem ~node ~khash (fun _ -> ())))
  | Radd (node, khash, p) ->
    with_line mem ~khash (fun () -> ignore (Memory.right_add mem ~node ~khash p))
  | Rrem (node, khash, p) ->
    with_line mem ~khash (fun () -> ignore (Memory.right_remove mem ~node ~khash p))

let left_fingerprint mem =
  Memory.fold_left_entries mem ~init:[] ~f:(fun acc ~node ~khash e ->
      (node, khash, Token.hash e.Memory.l_token, e.Memory.l_refs) :: acc)
  |> List.sort compare

let right_fingerprint mem =
  Memory.fold_right_entries mem ~init:[] ~f:(fun acc ~node ~khash ~refs p ->
      let pid =
        match p with
        | Memory.R_wme w -> w.Wme.timetag
        | Memory.R_tok t -> Token.hash t
      in
      (node, khash, pid, refs) :: acc)
  |> List.sort compare

let test_memory_contention () =
  let nd = 4 and iters = 256 in
  (* 4 lines so every domain contends on every line *)
  let shared_toks = Array.init 16 (fun i -> mk_tok (1000 + i)) in
  let shared_wmes =
    Array.init 16 (fun i ->
        Memory.R_wme
          (Wme.make ~cls:(Sym.intern "c") ~fields:[| Value.nil |]
             ~timetag:(3000 + i)))
  in
  let ops_for d =
    List.concat
      (List.init iters (fun i ->
           let tok = shared_toks.(i mod 16) in
           let khash = i mod 8 in
           let node = i mod 3 in
           (* paired add/remove of shared keys — half the domains in
              remove-first (tombstone) order — must fully annihilate *)
           let shared_left =
             if (i + d) mod 2 = 0 then
               [ Ladd (node, khash, tok); Liter (node, khash);
                 Lrem (node, khash, tok) ]
             else
               [ Lrem (node, khash, tok); Liter (node, khash);
                 Ladd (node, khash, tok) ]
           in
           let shared_right =
             let p = shared_wmes.(i mod 16) in
             if (i + d) mod 2 = 0 then
               [ Radd (node, khash, p); Rrem (node, khash, p) ]
             else [ Rrem (node, khash, p); Radd (node, khash, p) ]
           in
           (* a little private residue so the final state is non-trivial *)
           let residue =
             if i mod 16 = d then
               [ Ladd (100 + d, i, mk_tok (2000 + (d * iters) + i));
                 Radd (200 + d, i, shared_wmes.(d)) ]
             else []
           in
           shared_left @ shared_right @ residue))
  in
  let all_ops = Array.init nd ops_for in
  let par = Memory.create ~lines:4 () in
  Array.map
    (fun ops -> Stdlib.Domain.spawn (fun () -> List.iter (apply_op par) ops))
    all_ops
  |> Array.iter Stdlib.Domain.join;
  let ser = Memory.create ~lines:4 () in
  Array.iter (List.iter (apply_op ser)) all_ops;
  let show fp =
    List.map (fun (a, b, c, d) -> Printf.sprintf "%d:%d:%d:%d" a b c d) fp
  in
  Alcotest.(check (list string))
    "left state equals serial replay"
    (show (left_fingerprint ser))
    (show (left_fingerprint par));
  Alcotest.(check (list string))
    "right state equals serial replay"
    (show (right_fingerprint ser))
    (show (right_fingerprint par));
  Alcotest.(check bool)
    "all shared keys annihilated (only private residue remains)" true
    (List.for_all (fun (node, _, _, _) -> node >= 100) (left_fingerprint par))

(* --- the memory against an unindexed model -------------------------------- *)

(* The reference is the unindexed design: a line is a plain array with
   swap-remove semantics, and every probe scans the whole line in
   position order. It shares no code with [Memory]. Random sequences of
   inserts, deletes, folds, population reads and node excisions over a
   few nodes and khashes, from small token and wme pools (so duplicate
   adds, early deletes and annihilation occur), on memories of 1 and 2
   lines (so keys share lines), must give the same return values, fold
   sequences, populations and entry multisets. *)

type model_entry = {
  m_node : int;
  m_khash : int;
  m_item : int;  (* index into the token or payload pool *)
  mutable m_refs : int;
  m_count : int;
}

type model_line = { mutable l : model_entry array; mutable r : model_entry array }

let model_swap_remove a i =
  let n = Array.length a in
  let a' = Array.sub a 0 (n - 1) in
  if i < n - 1 then a'.(i) <- a.(n - 1);
  a'

let model_find a ~node ~khash item =
  let rec go i =
    if i >= Array.length a then -1
    else
      let e = a.(i) in
      if e.m_node = node && e.m_khash = khash && e.m_item = item then i else go (i + 1)
  in
  go 0

(* add (+1) or delete (-1) on one side; the entry that crossed 1 (add)
   or 0 (delete), or None *)
let model_change a ~node ~khash item ~count ~delta =
  let i = model_find a ~node ~khash item in
  if i < 0 then begin
    let e = { m_node = node; m_khash = khash; m_item = item; m_refs = delta; m_count = count } in
    (Array.append a [| e |], if delta > 0 then Some e else None)
  end
  else begin
    let e = a.(i) in
    e.m_refs <- e.m_refs + delta;
    if e.m_refs = 0 then (model_swap_remove a i, if delta < 0 then Some e else None)
    else (a, if delta > 0 && e.m_refs = 1 then Some e else None)
  end

(* excising a node purges its entries line by line, front to back *)
let model_drop a ~node =
  let rec go a i =
    if i >= Array.length a then a
    else if a.(i).m_node = node then go (model_swap_remove a i) i
    else go a (i + 1)
  in
  go a 0

let model_fold a ~node ~khash =
  Array.to_list a
  |> List.filter (fun e -> e.m_node = node && e.m_khash = khash && e.m_refs >= 1)
  |> List.map (fun e -> e.m_item)

(* kind, node, khash index, pool item, count *)
type model_op = int * int * int * int * int

let model_khashes =
  (* small values, two equality-free seeds (the node-id shape a khash
     takes without equality tests) and one with high bits set *)
  [| 0; 1; 2; 3; 5; 0x9e3779b1; (2 * 0x9e3779b1) land max_int; 0x3fff_ffff_0000_0004 |]

let model_pool = 4

let gen_model_ops =
  let open QCheck.Gen in
  let op =
    map
      (fun (kind, node, kh, item, count) -> ((kind, node, kh, item, count) : model_op))
      (tup5
         (frequency
            [ (12, return 0); (9, return 1); (12, return 2); (9, return 3);
              (3, return 4); (3, return 5); (3, return 6); (3, return 7);
              (1, return 8) ])
         (int_bound 2)
         (int_bound (Array.length model_khashes - 1))
         (int_bound (model_pool - 1))
         (int_bound 2))
  in
  pair (oneofl [ 1; 2 ]) (list_size (int_range 1 300) op)

let show_model_op ((kind, node, kh, item, count) : model_op) =
  let name =
    [| "left_insert"; "left_delete"; "right_add"; "right_remove"; "left_fold";
       "right_fold"; "left_population"; "right_population"; "drop_node" |].(kind)
  in
  Printf.sprintf "%s n%d k%d #%d c%d" name node kh item count

let prop_memory_model =
  QCheck.Test.make ~count:300 ~name:"memory: chains = unindexed line model"
    (QCheck.make
       ~print:(fun (lines, ops) ->
         Printf.sprintf "lines=%d [%s]" lines
           (String.concat "; " (List.map show_model_op ops)))
       gen_model_ops)
    (fun (lines, ops) ->
      let toks = Array.init model_pool (fun i -> mk_tok (5000 + i)) in
      let payloads =
        Array.init model_pool (fun i ->
            if i mod 2 = 0 then
              Memory.R_wme
                (Wme.make ~cls:(Sym.intern "c") ~fields:[| Value.nil |]
                   ~timetag:(6000 + i))
            else Memory.R_tok (mk_tok (7000 + i)))
      in
      let tok_index t =
        let rec go i = if toks.(i) == t then i else go (i + 1) in
        go 0
      in
      let payload_index p =
        let rec go i = if payloads.(i) == p then i else go (i + 1) in
        go 0
      in
      let mem = Memory.create ~lines () in
      let model = Array.init lines (fun _ -> { l = [||]; r = [||] }) in
      let fail step what fmt =
        QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) step what
      in
      List.iteri
        (fun step ((kind, node, kh, item, count) as op) ->
          let khash = model_khashes.(kh) in
          let ml = model.(Memory.line_of mem ~khash) in
          let fail fmt = fail step (show_model_op op) fmt in
          let show_items l = String.concat "," (List.map string_of_int l) in
          if kind = 8 then begin
            (* takes each line's lock itself *)
            Memory.drop_node mem ~node;
            Array.iter
              (fun ml ->
                ml.l <- model_drop ml.l ~node;
                ml.r <- model_drop ml.r ~node)
              model
          end
          else
          with_line mem ~khash (fun () ->
              match kind with
              | 0 | 1 ->
                let delta = if kind = 0 then 1 else -1 in
                let e =
                  if kind = 0 then Memory.left_insert mem ~node ~khash toks.(item) ~count
                  else Memory.left_delete mem ~node ~khash toks.(item)
                in
                let a, m = model_change ml.l ~node ~khash item ~count ~delta in
                ml.l <- a;
                (match m with
                 | None -> if e != Memory.inert then fail "entry returned, model inert"
                 | Some m ->
                   if e == Memory.inert then fail "inert returned, model entry"
                   else if
                     tok_index e.Memory.l_token <> m.m_item
                     || e.Memory.l_refs <> m.m_refs
                     || e.Memory.l_count <> m.m_count
                   then
                     fail "entry #%d refs %d count %d, model #%d refs %d count %d"
                       (tok_index e.Memory.l_token) e.Memory.l_refs e.Memory.l_count
                       m.m_item m.m_refs m.m_count)
              | 2 | 3 ->
                let delta = if kind = 2 then 1 else -1 in
                let live =
                  if kind = 2 then Memory.right_add mem ~node ~khash payloads.(item)
                  else Memory.right_remove mem ~node ~khash payloads.(item)
                in
                let a, m = model_change ml.r ~node ~khash item ~count:0 ~delta in
                ml.r <- a;
                if live <> Option.is_some m then fail "returned %b" live
              | 4 ->
                let got =
                  Memory.left_fold mem ~node ~khash ~stage:Fun.id ()
                    (fun () acc e -> tok_index e.Memory.l_token :: acc)
                    []
                  |> List.rev
                in
                let want = model_fold ml.l ~node ~khash in
                if got <> want then fail "fold [%s], model [%s]" (show_items got) (show_items want)
              | 5 ->
                let got =
                  Memory.right_fold mem ~node ~khash ~stage:Fun.id ()
                    (fun () acc p -> payload_index p :: acc)
                    []
                  |> List.rev
                in
                let want = model_fold ml.r ~node ~khash in
                if got <> want then fail "fold [%s], model [%s]" (show_items got) (show_items want)
              | 6 ->
                let got = Memory.left_population mem ~khash in
                if got <> Array.length ml.l then
                  fail "population %d, model %d" got (Array.length ml.l)
              | _ ->
                let got = Memory.right_population mem ~khash in
                if got <> Array.length ml.r then
                  fail "population %d, model %d" got (Array.length ml.r)))
        ops;
      let sorted l = List.sort compare l in
      let model_entries side =
        Array.to_list model
        |> List.concat_map (fun ml -> Array.to_list (side ml))
        |> List.map (fun e -> (e.m_node, e.m_khash, e.m_item, e.m_refs))
        |> sorted
      in
      let left =
        Memory.fold_left_entries mem ~init:[] ~f:(fun acc ~node ~khash e ->
            (node, khash, tok_index e.Memory.l_token, e.Memory.l_refs) :: acc)
        |> sorted
      in
      let right =
        Memory.fold_right_entries mem ~init:[] ~f:(fun acc ~node ~khash ~refs p ->
            (node, khash, payload_index p, refs) :: acc)
        |> sorted
      in
      if left <> model_entries (fun ml -> ml.l) then
        QCheck.Test.fail_report "left entries differ from the model";
      if right <> model_entries (fun ml -> ml.r) then
        QCheck.Test.fail_report "right entries differ from the model";
      true)

let test_parallel_trace_race_free () =
  (* a real 4-domain run over the work-stealing deques: the vector-clock
     race detector must see every memory access locked, no unordered
     unlocked pairs, and — the deque's no-double-delivery guarantee —
     no task popped twice *)
  let schema, net =
    Fixtures.network_of
      {|
(p r1 (block ^name <x> ^color blue) -(block ^on <x>) (hand ^state free) --> (write a))
(p r2 (block ^name <a> ^on <b>) (block ^name <b>) --> (write b))
(p r3 (block ^name <x> ^color red ^state <s>) (block ^name { <y> <> <x> } ^state <s>) --> (write c))
|}
  in
  let wm = Wm.create () in
  let block name color on =
    Fixtures.add_wme schema wm "block"
      ([ ("name", Fixtures.sym name); ("color", Fixtures.sym color);
         ("state", Fixtures.sym "live") ]
      @ if on = "" then [] else [ ("on", Fixtures.sym on) ])
  in
  let wmes =
    [
      block "a" "red" "b"; block "b" "red" "c"; block "c" "blue" "";
      block "d" "blue" ""; block "e" "green" "d"; block "f" "red" "a";
      Fixtures.add_wme schema wm "hand" [ ("state", Fixtures.sym "free") ];
    ]
  in
  let tracer = Psme_obs.Trace.create () in
  ignore
    (Parallel.run_changes ~tracer
       { Parallel.processes = 4; queues = Parallel.Multiple_queues }
       net
       (List.map (fun w -> (Task.Add, w)) wmes));
  let r = Races.analyze (Psme_obs.Trace.events tracer) in
  Alcotest.(check bool) "accesses traced" true (r.Races.n_accesses > 0);
  Alcotest.(check int) "no unlocked accesses" 0 r.Races.n_unlocked;
  Alcotest.(check int) "no unordered unlocked pairs" 0 r.Races.n_races;
  Alcotest.(check (list (pair int int))) "no double pops" [] r.Races.double_pops

(* --- workload equivalence ---------------------------------------------- *)

(* The serial engine's exact scanned / alpha-activation totals are
   pinned by the test/golden expect test, which runs in a fresh process
   (khash values depend on the global symbol table, which other suites
   in this process have already grown). Here we check the engines agree
   with each other. *)
let workloads = [ Eight_puzzle.workload; Strips.workload ]

let run_with mode (w : Workload.t) =
  let agent =
    w.Workload.make
      ~config:
        {
          Psme_soar.Agent.default_config with
          Psme_soar.Agent.learning = false;
          engine_mode = mode;
        }
      ()
  in
  let s = Psme_soar.Agent.run agent in
  (agent, s)

let verify_clean name agent =
  (* (halt) exits mid-phase; deliver the buffered changes first *)
  Psme_soar.Agent.flush_match agent;
  let r =
    Verify.state
      (Psme_soar.Agent.network agent)
      (Wm.to_list (Psme_soar.Agent.wm agent))
  in
  Alcotest.(check int) (name ^ ": Verify.state zero diffs") 0
    (List.length r.Finding.findings)

let test_workload_equivalence () =
  List.iter
    (fun (w : Workload.t) ->
      let sa, ss = run_with Engine.Serial_mode w in
      Alcotest.(check bool) (w.Workload.name ^ ": serial halted") true
        ss.Psme_soar.Agent.halted;
      verify_clean (w.Workload.name ^ "/serial") sa;
      List.iter
        (fun (label, mode) ->
          let a, s = run_with mode w in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s halted" w.Workload.name label)
            true s.Psme_soar.Agent.halted;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s same decisions as serial" w.Workload.name label)
            ss.Psme_soar.Agent.decisions s.Psme_soar.Agent.decisions;
          verify_clean (Printf.sprintf "%s/%s" w.Workload.name label) a)
        [
          ( "parallel",
            Engine.Parallel_mode
              { Parallel.processes = 2; queues = Parallel.Multiple_queues } );
          ( "sim",
            Engine.Sim_mode
              { Sim.procs = 4; queues = Parallel.Multiple_queues;
                collect_trace = false } );
        ])
    workloads

(* --- allocation budget of one activation --------------------------------- *)

(* Minor words a join activation allocates through [Runtime.exec]. The
   join has one equality test and three inequality residuals; its left
   memory is empty in the first case, and its right memory holds one
   passing wme in the second. While the node programs ran their
   line-lock section as a closure through [Fun.protect], reported the
   access as a record in a list, bumped shared counters and probed a
   polymorphic index, the first case allocated 181 words and the second
   151 (OCaml 5.1). Since the bucket chains are threaded through the
   entries (no per-key vector, table cell or [Some] per probe), the two
   cases allocate 26 and 49 words. The bounds sit a few words above
   that, so a per-activation closure or list cannot creep back
   unnoticed. What is left: the outcome record, the memory item, and in
   the second case the staged test, one match cons, the extended token,
   its task and the children array. *)
(* the id of the first node of [net] whose kind satisfies [p] *)
let first_node net p =
  Network.fold_nodes net ~init:None ~f:(fun acc n ->
      match acc with None when p n.Network.kind -> Some n.Network.id | _ -> acc)
  |> Option.get

let join_fixture () =
  let schema, net =
    Fixtures.network_of
      ~config:{ Network.default_config with Network.lines = 16 }
      {|(p kscan (block ^name <x> ^color <c> ^on <o> ^state <s>)
                 (block ^on <x> ^name <> <o> ^color <> <c> ^state <> <s>)
                 --> (write j))|}
  in
  let node = first_node net (function Network.Join _ -> true | _ -> false) in
  let block tag pairs =
    Wme.make ~cls:(Sym.intern "block")
      ~fields:
        (Fixtures.fields schema "block"
           (List.map (fun (a, v) -> (a, Fixtures.sym v)) pairs))
      ~timetag:tag
  in
  (net, node, block)

(* mean minor words of [f], which returns the words it counted, over
   [n] calls after one warm-up call *)
let mean_words f =
  ignore (f ());
  let n = 1000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. f ()
  done;
  !total /. float_of_int n

let test_activation_allocation () =
  let net, node, block = join_fixture () in
  let w = block 1 [ ("name", "rn"); ("color", "rc"); ("on", "kb"); ("state", "rs") ] in
  let add = Task.Right { node; flag = Task.Add; wme = w } in
  let del = Task.Right { node; flag = Task.Delete; wme = w } in
  let null_pair =
    mean_words (fun () ->
        let before = Gc.minor_words () in
        ignore (Runtime.exec net add);
        ignore (Runtime.exec net del);
        Gc.minor_words () -. before)
  in
  Alcotest.(check bool)
    (Printf.sprintf "null right add+delete pair: %.0f words <= 30" null_pair)
    true (null_pair <= 30.);
  let net, node, block = join_fixture () in
  let r = block 1 [ ("name", "rn"); ("color", "rc"); ("on", "kb"); ("state", "rs") ] in
  ignore (Runtime.exec net (Task.Right { node; flag = Task.Add; wme = r }));
  let token =
    Token.singleton
      (block 2 [ ("name", "kb"); ("color", "lc"); ("on", "lo"); ("state", "ls") ])
  in
  let ladd = Task.Left { node; flag = Task.Add; token } in
  let ldel = Task.Left { node; flag = Task.Delete; token } in
  let one_match =
    mean_words (fun () ->
        let before = Gc.minor_words () in
        let o = Runtime.exec net ladd in
        let words = Gc.minor_words () -. before in
        if Array.length o.Runtime.children <> 1 then Alcotest.fail "expected one match";
        ignore (Runtime.exec net ldel);
        words)
  in
  Alcotest.(check bool)
    (Printf.sprintf "left activation with one match: %.0f words <= 55" one_match)
    true (one_match <= 55.);
  (* Opening a bucket key allocates only the entry: a right item is a
     header and five fields. Adding and then removing n entries under
     distinct keys grows the line first, so n adds under new distinct
     keys find room for their links and keys. *)
  let mem = Memory.create ~lines:1 () in
  let n = 1000 in
  let payloads =
    Array.init (2 * n) (fun i ->
        Memory.R_wme
          (Wme.make ~cls:(Sym.intern "c") ~fields:[| Value.nil |] ~timetag:(8000 + i)))
  in
  let change f lo =
    Memory.lock mem ~line:0;
    for k = lo to lo + n - 1 do
      ignore (f mem ~node:1 ~khash:k payloads.(k))
    done;
    Memory.unlock mem ~line:0
  in
  change Memory.right_add 0;
  change Memory.right_remove 0;
  let before = Gc.minor_words () in
  change Memory.right_add n;
  let per_key = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "new bucket key: %.2f words per add <= 6" per_key)
    true (per_key <= 6.01)

(* A delete wave retracts through the memory's own copy of a token. A
   live left delete continues with the entry's stored token, not with
   the re-derived copy that arrived: the join extends the stored token,
   the negative node emits it. Each equality check further down (a
   child's memory probe, an NCC prefix, the conflict set) then stops at
   the first parent the two tokens physically share instead of walking
   the whole token. *)
let test_retract_through_stored_token () =
  let check_children what o want =
    Alcotest.(check bool) (what ^ ": emits") true (Array.length o.Runtime.children > 0);
    Array.iter
      (function
        | Task.Left { token; _ } ->
          Alcotest.(check bool) (what ^ ": the stored token") true (want token)
        | _ -> Alcotest.fail (what ^ ": expected a left task"))
      o.Runtime.children
  in
  (* a join with one matching right wme *)
  let net, node, block = join_fixture () in
  let r = block 1 [ ("name", "rn"); ("color", "rc"); ("on", "kb"); ("state", "rs") ] in
  ignore (Runtime.exec net (Task.Right { node; flag = Task.Add; wme = r }));
  let l = block 2 [ ("name", "kb"); ("color", "lc"); ("on", "lo"); ("state", "ls") ] in
  let stored = Token.singleton l and copy = Token.singleton l in
  ignore (Runtime.exec net (Task.Left { node; flag = Task.Add; token = stored }));
  check_children "join delete"
    (Runtime.exec net (Task.Left { node; flag = Task.Delete; token = copy }))
    (fun child -> Token.prefix child (Token.length child - 1) == stored);
  (* a negative node with no blocking right wme *)
  let schema, net =
    Fixtures.network_of "(p nscan (block ^name <x>) -(block ^on <x>) --> (write n))"
  in
  let node = first_node net (function Network.Neg _ -> true | _ -> false) in
  let l =
    Wme.make ~cls:(Sym.intern "block")
      ~fields:(Fixtures.fields schema "block" [ ("name", Fixtures.sym "kb") ])
      ~timetag:3
  in
  let stored = Token.singleton l and copy = Token.singleton l in
  ignore (Runtime.exec net (Task.Left { node; flag = Task.Add; token = stored }));
  check_children "negative delete"
    (Runtime.exec net (Task.Left { node; flag = Task.Delete; token = copy }))
    (fun child -> child == stored)

(* One join level costs the same at any depth: [Token.extend] points
   at its parent instead of copying it, and the hash rolls forward from
   the parent's. The paper's long-chain productions (§6.2) pay this on
   every level of a 40+-CE chain. *)
let test_token_depth () =
  let cls = Sym.intern "block" in
  let wme i = Wme.make ~cls ~fields:[||] ~timetag:i in
  let words_at d =
    let base = ref (Token.singleton (wme 0)) in
    for i = 1 to d - 1 do
      base := Token.extend !base (wme i)
    done;
    let base = !base and w = wme d in
    Alcotest.(check bool)
      (Printf.sprintf "depth %d: the parent is shared" d)
      true
      (Token.prefix (Token.extend base w) d == base);
    mean_words (fun () ->
        let before = Gc.minor_words () in
        ignore (Token.hash (Token.extend base w));
        Gc.minor_words () -. before)
  in
  let shallow = words_at 4 in
  List.iter
    (fun d ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "extend+hash at depth %d allocates as at depth 4 (%.0f words)" d
           shallow)
        shallow (words_at d))
    [ 64; 256 ]

let suite =
  [
    Alcotest.test_case "deque: owner LIFO" `Quick test_deque_owner_lifo;
    Alcotest.test_case "deque: steal FIFO" `Quick test_deque_steal_fifo;
    Alcotest.test_case "deque: growth" `Quick test_deque_growth;
    Alcotest.test_case "deque: stats + steal provenance" `Quick
      test_deque_stats_provenance;
    Alcotest.test_case "deque: concurrent steals exactly-once" `Quick
      test_deque_concurrent_steals;
    Alcotest.test_case "memory: histogram units pinned" `Quick
      test_histogram_units;
    Alcotest.test_case "memory: 4-domain contention = serial replay" `Quick
      test_memory_contention;
    QCheck_alcotest.to_alcotest prop_memory_model;
    Alcotest.test_case "parallel: deque run race-free" `Quick
      test_parallel_trace_race_free;
    Alcotest.test_case "runtime: activation allocation budget" `Quick
      test_activation_allocation;
    Alcotest.test_case "runtime: deletes retract through the stored token" `Quick
      test_retract_through_stored_token;
    Alcotest.test_case "token: extend+hash independent of depth" `Quick
      test_token_depth;
    Alcotest.test_case "workloads: serial/parallel/sim equivalence" `Slow
      test_workload_equivalence;
  ]
