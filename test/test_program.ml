(* Closure-compiled node programs (PSM-E's "machine code" analogue,
   PAPER §4) and their jumptable (§5.1): chunks spliced mid-run get
   programs in place, and excise clears them. Conflict-set correctness
   of the programs is property-tested against the naive oracle in
   test_props. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine

let blocks_schema () =
  let schema = Schema.create () in
  Schema.declare schema "block" [ "name"; "color"; "on"; "state" ];
  schema

let parse schema src = Parser.parse_production schema src

(* --- the jumptable grows in place (§5.1) -------------------------------- *)

(* Chunks spliced mid-run must execute compiled without a network
   rebuild: the dispatch table keeps its identity, its slot array grows,
   and the new production's nodes get entries immediately. *)
let test_jumptable_grows_in_place () =
  let schema = blocks_schema () in
  let net = Network.create schema in
  ignore
    (Build.add_production net
       (parse schema "(p base (block ^name <x> ^color red) --> (write base))"));
  let t1 =
    match Program.table net with
    | Some t -> t
    | None -> Alcotest.fail "no jumptable after first build"
  in
  let c1 = Program.compiled_count net in
  Alcotest.(check bool) "programs installed at build time" true (c1 > 0);
  (* mid-run: the network has already matched wmes *)
  let wm = Wm.create () in
  let mk name color on =
    let fields = Array.make 4 Value.nil in
    fields.(0) <- Value.sym name;
    fields.(1) <- Value.sym color;
    fields.(2) <- Value.sym on;
    Wm.add wm ~cls:(Sym.intern "block") ~fields
  in
  let w1 = mk "a" "red" "t" in
  ignore (Serial.run_changes net [ (Task.Add, w1) ]);
  Alcotest.(check (list (pair string (list int))))
    "base matched" [ ("base", [ w1.Wme.timetag ]) ] (Test_props.rete_cs net);
  (* splice enough chunks to force the slot array past its initial
     capacity; the table record itself must never be replaced *)
  let cap1 = Program.table_capacity t1 in
  let i = ref 0 in
  while Network.next_id net <= cap1 do
    incr i;
    ignore
      (Build.add_production net
         (parse schema
            (Printf.sprintf
               "(p chunk-%d (block ^name <x> ^color c%d) (block ^on <x>) --> (write c))"
               !i !i)))
  done;
  let t2 =
    match Program.table net with
    | Some t -> t
    | None -> Alcotest.fail "jumptable lost after chunk splice"
  in
  Alcotest.(check bool) "table record identity preserved" true (t1 == t2);
  Alcotest.(check bool)
    "slot array grew in place"
    true
    (Program.table_capacity t2 > cap1);
  Alcotest.(check bool)
    "chunk programs compiled incrementally" true
    (Program.compiled_count net > c1);
  (* and the spliced production matches through the compiled path *)
  let w2 = mk "b" "c1" "t" in
  let w3 = mk "x" "blue" "b" in
  ignore (Serial.run_changes net [ (Task.Add, w2); (Task.Add, w3) ]);
  let cs = Test_props.rete_cs net in
  Alcotest.(check bool)
    "spliced chunk fired" true
    (List.exists (fun (p, _) -> p = "chunk-1") cs)

(* --- excise clears slots ------------------------------------------------ *)

let test_excise_clears_programs () =
  let schema = blocks_schema () in
  let net = Network.create schema in
  ignore
    (Build.add_production net
       (parse schema "(p doomed (block ^name <x>) (block ^on <x>) --> (write d))"));
  let c1 = Program.compiled_count net in
  Build.excise_production net (Sym.intern "doomed");
  Alcotest.(check bool)
    "excise removed compiled programs" true
    (Program.compiled_count net < c1)

(* --- a task queued for an excised node ----------------------------------- *)

(* A task whose node was excised while it sat in a queue finds an empty
   jumptable slot and is absorbed (DESIGN §4b) — by every engine, not
   only by Runtime.exec: no engine looks the node up. The absorbed task
   counts as one task, scans and emits nothing, and is charged 0 µs. *)
let test_excised_task_absorbed () =
  let schema = blocks_schema () in
  let net = Network.create schema in
  ignore
    (Build.add_production net
       (parse schema "(p doomed (block ^name <x>) (block ^on <x>) --> (write d))"));
  let join =
    Network.fold_nodes net ~init:None ~f:(fun acc n ->
        match (acc, n.Network.kind) with
        | None, Network.Join _ -> Some n.Network.id
        | _ -> acc)
    |> Option.get
  in
  Build.excise_production net (Sym.intern "doomed");
  let w = Wme.make ~cls:(Sym.intern "block") ~fields:(Array.make 4 Value.nil) ~timetag:1 in
  let task = Task.Right { node = join; flag = Task.Add; wme = w } in
  let check engine (s : Cycle.stats) =
    Alcotest.(check int) (engine ^ ": one task") 1 s.Cycle.tasks;
    Alcotest.(check int) (engine ^ ": nothing scanned") 0 s.Cycle.scanned;
    Alcotest.(check int) (engine ^ ": nothing emitted") 0 s.Cycle.emitted
  in
  let serial = Serial.run_tasks net [ task ] in
  check "serial" serial;
  Alcotest.(check (float 0.)) "serial: charged 0 us" 0. serial.Cycle.serial_us;
  check "sim"
    (Sim.run_tasks
       { Sim.procs = 4; queues = Parallel.Multiple_queues; collect_trace = false }
       net [ task ]);
  check "domains"
    (Parallel.run_tasks
       { Parallel.processes = 2; queues = Parallel.Multiple_queues }
       net [ task ])

let suite =
  [
    Alcotest.test_case "jumptable grows in place on chunk splice" `Quick
      test_jumptable_grows_in_place;
    Alcotest.test_case "excise clears compiled programs" `Quick
      test_excise_clears_programs;
    Alcotest.test_case "engines absorb a task for an excised node" `Quick
      test_excised_task_absorbed;
  ]
