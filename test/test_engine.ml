(* Engine tests: the serial engine defines the semantics; the real
   parallel engine and the simulated multiprocessor must agree with it,
   and the simulator must be deterministic with sane accounting. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine
open Fixtures

let rules =
  {|
(p r1 (block ^name <x> ^color blue) -(block ^on <x>) (hand ^state free) --> (write a))
(p r2 (block ^name <x> ^state <s>) (block ^name { <y> <> <x> } ^state <s>) --> (write b))
(p r3 (block ^name <x> ^color red) (place ^name <x> ^table free) --> (write c))
|}

(* Batches of changes: a wme may only be deleted in a batch after the
   one that added it — within one buffered cycle the changes must be
   independent, or concurrent processing would be order-dependent
   (Soar's decide module guarantees the same property). *)
let random_batches schema ~seed ~n =
  let rng = Rng.create seed in
  let colors = [| "red"; "blue"; "green" |] in
  let names = [| "a"; "b"; "c"; "d"; "e" |] in
  let tag = ref 0 in
  let committed = ref [] in
  let batch_size = 10 in
  List.init ((n + batch_size - 1) / batch_size) (fun _ ->
      let batch_adds = ref [] in
      let batch =
        List.concat
          (List.init batch_size (fun _ ->
               if !committed <> [] && Rng.int rng 4 = 0 then begin
                 let idx = Rng.int rng (List.length !committed) in
                 let w = List.nth !committed idx in
                 committed := List.filteri (fun i _ -> i <> idx) !committed;
                 [ (Task.Delete, w) ]
               end
               else begin
                 incr tag;
                 let cls = Sym.intern "block" in
                 let fields = Array.make (Schema.arity schema cls) Value.nil in
                 fields.(Schema.field_index schema cls (Sym.intern "name")) <-
                   Value.sym (Rng.pick rng names);
                 fields.(Schema.field_index schema cls (Sym.intern "color")) <-
                   Value.sym (Rng.pick rng colors);
                 fields.(Schema.field_index schema cls (Sym.intern "state")) <-
                   Value.Int (Rng.int rng 3);
                 let w = Wme.make ~cls ~fields ~timetag:!tag in
                 batch_adds := w :: !batch_adds;
                 [ (Task.Add, w) ]
               end))
      in
      committed := !batch_adds @ !committed;
      batch)

let random_changes schema ~seed ~n =
  List.concat (random_batches schema ~seed ~n)

let fresh () =
  let schema = schema_with () in
  let net = Network.create schema in
  ignore (Build.add_all net (parse_prods schema rules));
  (schema, net)

let hand_wme schema =
  Wme.make ~cls:(Sym.intern "hand")
    ~fields:(fields schema "hand" [ ("state", sym "free") ]) ~timetag:100000

let serial_reference ~seed ~n =
  let schema, net = fresh () in
  ignore (Serial.run_changes net [ (Task.Add, hand_wme schema) ]);
  List.iter
    (fun batch -> ignore (Serial.run_changes net batch))
    (random_batches schema ~seed ~n);
  cs_fingerprint net

let test_parallel_matches_serial () =
  List.iter
    (fun seed ->
      let reference = serial_reference ~seed ~n:60 in
      List.iter
        (fun queues ->
          let schema, net = fresh () in
          ignore
            (Parallel.run_changes { Parallel.processes = 3; queues } net
               [ (Task.Add, hand_wme schema) ]);
          List.iter
            (fun batch ->
              ignore (Parallel.run_changes { Parallel.processes = 3; queues } net batch))
            (random_batches schema ~seed ~n:60);
          Alcotest.(check string)
            (Printf.sprintf "parallel = serial (seed %d)" seed)
            reference (cs_fingerprint net))
        [ Parallel.Single_queue; Parallel.Multiple_queues ])
    [ 1; 2; 3 ]

let test_sim_matches_serial () =
  List.iter
    (fun seed ->
      let reference = serial_reference ~seed ~n:60 in
      List.iter
        (fun procs ->
          let schema, net = fresh () in
          let cfg = { Sim.procs; queues = Parallel.Multiple_queues; collect_trace = false } in
          ignore (Sim.run_changes cfg net [ (Task.Add, hand_wme schema) ]);
          List.iter
            (fun batch -> ignore (Sim.run_changes cfg net batch))
            (random_batches schema ~seed ~n:60);
          Alcotest.(check string)
            (Printf.sprintf "sim(%d) = serial (seed %d)" procs seed)
            reference (cs_fingerprint net))
        [ 1; 4; 13 ])
    [ 7; 8 ]

let sim_run ~procs ~queues ~seed =
  let schema, net = fresh () in
  Sim.run_changes
    { Sim.procs; queues; collect_trace = false }
    net
    (random_changes schema ~seed ~n:80)

let test_sim_deterministic () =
  let a = sim_run ~procs:7 ~queues:Parallel.Single_queue ~seed:5 in
  let b = sim_run ~procs:7 ~queues:Parallel.Single_queue ~seed:5 in
  Alcotest.(check int) "same tasks" a.Cycle.tasks b.Cycle.tasks;
  Alcotest.(check (float 1e-9)) "same makespan" a.Cycle.makespan_us b.Cycle.makespan_us;
  Alcotest.(check (float 1e-9)) "same spins" a.Cycle.queue_spins b.Cycle.queue_spins

let test_sim_speedup_monotone_band () =
  (* More processes never increase makespan wildly, and speedup stays
     within [0.5, procs]. *)
  let s1 = sim_run ~procs:1 ~queues:Parallel.Multiple_queues ~seed:11 in
  List.iter
    (fun procs ->
      let s = sim_run ~procs ~queues:Parallel.Multiple_queues ~seed:11 in
      let speedup = s1.Cycle.serial_us /. s.Cycle.makespan_us in
      Alcotest.(check bool)
        (Printf.sprintf "speedup %.2f at %d procs within band" speedup procs)
        true
        (speedup >= 0.5 && speedup <= float_of_int procs))
    [ 2; 4; 8; 13 ]

let test_sim_work_conserved () =
  (* The same semantic work is done regardless of processor count. *)
  let a = sim_run ~procs:1 ~queues:Parallel.Single_queue ~seed:21 in
  let b = sim_run ~procs:13 ~queues:Parallel.Single_queue ~seed:21 in
  Alcotest.(check int) "same task count" a.Cycle.tasks b.Cycle.tasks;
  (* bucket scan counts may differ slightly: tombstone entries exist
     transiently under some schedules *)
  let drift =
    abs (a.Cycle.scanned - b.Cycle.scanned) * 100 / max 1 a.Cycle.scanned
  in
  Alcotest.(check bool) "scan counts within 5%" true (drift <= 5)

let test_single_queue_contention_grows () =
  let spins procs =
    let s = sim_run ~procs ~queues:Parallel.Single_queue ~seed:31 in
    s.Cycle.queue_spins /. float_of_int (max 1 s.Cycle.tasks)
  in
  let low = spins 3 and high = spins 13 in
  Alcotest.(check bool)
    (Printf.sprintf "spins/task grows with processes (%.2f -> %.2f)" low high)
    true (high > low)

let test_multi_queue_reduces_contention () =
  let spins queues =
    let s = sim_run ~procs:13 ~queues ~seed:31 in
    s.Cycle.queue_spins /. float_of_int (max 1 s.Cycle.tasks)
  in
  let single = spins Parallel.Single_queue in
  let multi = spins Parallel.Multiple_queues in
  Alcotest.(check bool)
    (Printf.sprintf "multiple queues reduce spins/task (%.2f -> %.2f)" single multi)
    true (multi < single)

let test_serial_stats_consistency () =
  let schema, net = fresh () in
  let stats = Serial.run_changes net (random_changes schema ~seed:3 ~n:40) in
  Alcotest.(check bool) "tasks executed" true (stats.Cycle.tasks > 0);
  Alcotest.(check bool) "serial time positive" true (stats.Cycle.serial_us > 0.);
  Alcotest.(check (float 1e-9)) "serial engine speedup is 1"
    stats.Cycle.serial_us stats.Cycle.makespan_us;
  Alcotest.(check bool) "alpha activations counted" true
    (stats.Cycle.alpha_activations > 0)

let test_cost_model_band () =
  (* Average cost per task should sit in the paper's 200-800us band for
     a join-heavy workload. *)
  let schema, net = fresh () in
  let stats = Serial.run_changes net (random_changes schema ~seed:13 ~n:80) in
  let per_task = stats.Cycle.serial_us /. float_of_int stats.Cycle.tasks in
  Alcotest.(check bool)
    (Printf.sprintf "avg %.0f us/task in band" per_task)
    true
    (per_task > 100. && per_task < 900.)

let test_engine_facade_history () =
  let schema, net = fresh () in
  let eng = Engine.create Engine.Serial_mode net in
  ignore (Engine.run_changes eng (random_changes schema ~seed:17 ~n:10));
  ignore (Engine.run_changes eng []);
  Alcotest.(check int) "two cycles recorded" 2 (List.length (Engine.history eng));
  let totals = Engine.totals eng in
  Alcotest.(check bool) "totals aggregate" true (totals.Cycle.tasks > 0);
  Engine.reset_history eng;
  Alcotest.(check int) "reset" 0 (List.length (Engine.history eng))

(* A process count below 1 is a configuration error, not an empty
   schedule: the simulator used to return a cycle that ran none of its
   tasks, the Domains engine to divide by zero. *)
let bad_procs = [ 0; -1 ]
let both_queue_modes = [ Parallel.Single_queue; Parallel.Multiple_queues ]

let test_sim_rejects_no_procs () =
  let schema, net = fresh () in
  let changes = random_changes schema ~seed:19 ~n:10 in
  List.iter
    (fun procs ->
      List.iter
        (fun queues ->
          Alcotest.check_raises
            (Printf.sprintf "procs %d" procs)
            (Invalid_argument "Sim: procs must be at least 1")
            (fun () ->
              ignore
                (Sim.run_changes { Sim.procs; queues; collect_trace = false } net changes)))
        both_queue_modes)
    bad_procs

let test_parallel_rejects_no_procs () =
  let schema, net = fresh () in
  let changes = random_changes schema ~seed:19 ~n:10 in
  List.iter
    (fun processes ->
      List.iter
        (fun queues ->
          Alcotest.check_raises
            (Printf.sprintf "processes %d" processes)
            (Invalid_argument "Parallel: processes must be at least 1")
            (fun () ->
              ignore (Parallel.run_changes { Parallel.processes; queues } net changes)))
        both_queue_modes)
    bad_procs

let suite =
  [
    Alcotest.test_case "parallel engines match serial" `Quick test_parallel_matches_serial;
    Alcotest.test_case "sim matches serial" `Quick test_sim_matches_serial;
    Alcotest.test_case "sim deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "sim speedup band" `Quick test_sim_speedup_monotone_band;
    Alcotest.test_case "sim work conserved" `Quick test_sim_work_conserved;
    Alcotest.test_case "single-queue contention grows" `Quick
      test_single_queue_contention_grows;
    Alcotest.test_case "multi-queue cuts contention" `Quick
      test_multi_queue_reduces_contention;
    Alcotest.test_case "serial stats consistency" `Quick test_serial_stats_consistency;
    Alcotest.test_case "cost model band" `Quick test_cost_model_band;
    Alcotest.test_case "engine facade history" `Quick test_engine_facade_history;
    Alcotest.test_case "sim rejects procs below 1" `Quick test_sim_rejects_no_procs;
    Alcotest.test_case "parallel rejects processes below 1" `Quick
      test_parallel_rejects_no_procs;
  ]
