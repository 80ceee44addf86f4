(* Workload tests: the three measured tasks must have the paper's
   production counts, run to their goals, learn chunks with the right
   structural profile, and transfer. *)

open Psme_ops5
open Psme_rete
open Psme_soar
open Psme_workloads

let all = [ Eight_puzzle.workload; Strips.workload; Cypress.workload ]

let test_production_counts () =
  List.iter
    (fun w ->
      Alcotest.(check int)
        (Printf.sprintf "%s has the paper's production count" w.Workload.name)
        w.Workload.paper_productions
        (Workload.production_count w))
    all

let test_eight_puzzle_solves () =
  let agent =
    Eight_puzzle.make_agent ~instance:(Eight_puzzle.scrambled ~seed:3 ~moves:6) ()
  in
  let s = Agent.run agent in
  Alcotest.(check bool) "halted" true s.Agent.halted;
  Alcotest.(check bool) "solved" true (Eight_puzzle.solved agent);
  Alcotest.(check bool) "learned chunks" true (s.Agent.chunks <> [])

let test_eight_puzzle_scramble_reachable () =
  (* a scrambled board is a permutation of the goal board *)
  let { Eight_puzzle.board } = Eight_puzzle.scrambled ~seed:99 ~moves:30 in
  let sorted = Array.copy board in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation of 0..8" true
    (sorted = Array.init 9 Fun.id)

let test_strips_solves () =
  let agent = Strips.make_agent () in
  let s = Agent.run agent in
  Alcotest.(check bool) "halted" true s.Agent.halted;
  Alcotest.(check bool) "box delivered" true (Strips.solved agent);
  (* the plan must open the closed door before pushing through it *)
  let plan = List.filter (fun l -> l <> "strips done") s.Agent.output in
  let index p =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if p x then i else go (i + 1) rest
    in
    go 0 plan
  in
  let open_idx = index (fun l -> l = "open-door d45") in
  let push_idx = index (fun l -> l = "push-thru box1 d45") in
  Alcotest.(check bool) "door opened" true (open_idx >= 0);
  Alcotest.(check bool) "box pushed through it afterwards" true
    (push_idx > open_idx)

let test_strips_monitor_long_chain () =
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  let p = Parser.parse_production schema (Strips.monitor_production Strips.default_layout) in
  Alcotest.(check bool)
    (Printf.sprintf "monitor has a long chain (%d CEs >= 40)" (Production.num_ces p))
    true
    (Production.num_ces p >= 40)

let test_cypress_derives_quicksort () =
  let agent = Cypress.make_agent () in
  let s = Agent.run agent in
  Alcotest.(check bool) "halted" true s.Agent.halted;
  let derivation = Cypress.derivation agent in
  List.iter
    (fun (step, want) ->
      match List.assoc_opt step derivation with
      | Some got ->
        Alcotest.(check string) (Printf.sprintf "step %s" step) want got
      | None -> Alcotest.fail (Printf.sprintf "step %s missing from derivation" step))
    Cypress.preferred

let test_cypress_chunks_are_large () =
  let agent = Cypress.make_agent () in
  let s = Agent.run agent in
  let chunks = s.Agent.chunks in
  Alcotest.(check bool) "chunks built" true (chunks <> []);
  let avg =
    float_of_int (List.fold_left (fun a c -> a + c.Agent.ci_ces) 0 chunks)
    /. float_of_int (List.length chunks)
  in
  Alcotest.(check bool)
    (Printf.sprintf "cypress chunks are large (avg %.1f CEs >= 30)" avg)
    true (avg >= 30.)

let test_chunks_bigger_than_task_productions () =
  (* Table 5-1's headline: chunks have 2-3x the CEs of the hand-written
     productions. *)
  List.iter
    (fun w ->
      let agent = w.Workload.make () in
      let s = Agent.run agent in
      if s.Agent.chunks <> [] then begin
        let initial =
          Network.productions (Agent.network agent)
          |> List.filter (fun pm -> not pm.Network.meta_production.Production.is_chunk)
        in
        let avg_task =
          float_of_int
            (List.fold_left
               (fun a pm -> a + Production.num_ces pm.Network.meta_production)
               0 initial)
          /. float_of_int (List.length initial)
        in
        let avg_chunk =
          float_of_int (List.fold_left (fun a c -> a + c.Agent.ci_ces) 0 s.Agent.chunks)
          /. float_of_int (List.length s.Agent.chunks)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: chunks (%.1f CEs) > productions (%.1f CEs)"
             w.Workload.name avg_chunk avg_task)
          true
          (avg_chunk > avg_task)
      end)
    all

let test_transfer_all_tasks () =
  List.iter
    (fun w ->
      let first = w.Workload.make () in
      let s1 = Agent.run first in
      let chunks = Agent.learned_productions first in
      let config = { Agent.default_config with Agent.learning = false } in
      let second = w.Workload.make ~config ~extra:chunks () in
      let s2 = Agent.run second in
      Alcotest.(check bool)
        (Printf.sprintf "%s: after-run still reaches the goal" w.Workload.name)
        true s2.Agent.halted;
      Alcotest.(check bool)
        (Printf.sprintf "%s: fewer decisions after chunking (%d < %d)" w.Workload.name
           s2.Agent.decisions s1.Agent.decisions)
        true
        (s2.Agent.decisions < s1.Agent.decisions))
    all

let test_chunk_installation_is_fast () =
  (* Table 5-2's point: incremental compilation must not be a serial
     bottleneck. Bound: < 2ms per chunk of real time, timed as Table 5-2
     times it (compilation alone, not pending collector work). *)
  List.iter
    (fun (ns, _) -> Alcotest.(check bool) "chunk compiles in < 2ms" true (ns < 2_000_000))
    (Psme_harness.Experiments.chunk_compiles Eight_puzzle.workload)

let test_sharing_reduces_new_nodes () =
  let run share =
    let config =
      {
        Agent.default_config with
        Agent.net_config = { Network.default_config with Network.share };
      }
    in
    let agent = Eight_puzzle.make_agent ~config () in
    let s = Agent.run agent in
    List.fold_left (fun a c -> a + c.Agent.ci_new_nodes) 0 s.Agent.chunks
  in
  let shared = run true and unshared = run false in
  Alcotest.(check bool)
    (Printf.sprintf "sharing creates fewer nodes (%d < %d)" shared unshared)
    true (shared < unshared)

let test_workloads_under_sim_engine () =
  (* The full Soar loop must run unchanged on the simulated engine and
     produce the same decision count as the serial engine. *)
  let serial = Eight_puzzle.make_agent () in
  let s_serial = Agent.run serial in
  let config =
    {
      Agent.default_config with
      Agent.engine_mode =
        Psme_engine.Engine.Sim_mode
          { Psme_engine.Sim.procs = 8;
            queues = Psme_engine.Parallel.Multiple_queues;
            collect_trace = false };
    }
  in
  let sim = Eight_puzzle.make_agent ~config () in
  let s_sim = Agent.run sim in
  Alcotest.(check int) "same decisions on sim engine" s_serial.Agent.decisions
    s_sim.Agent.decisions;
  Alcotest.(check bool) "same halt" true (s_serial.Agent.halted = s_sim.Agent.halted)

let test_bilinear_strips_equivalent () =
  (* Compiling Strips with bilinear networks must not change behaviour. *)
  let config =
    {
      Agent.default_config with
      Agent.net_config =
        { Network.default_config with Network.bilinear = true; bilinear_min_ces = 15 };
    }
  in
  let lin = Strips.make_agent () in
  let bil = Strips.make_agent ~config () in
  let s_lin = Agent.run lin and s_bil = Agent.run bil in
  Alcotest.(check int) "same decisions" s_lin.Agent.decisions s_bil.Agent.decisions;
  Alcotest.(check bool) "both solve" true (Strips.solved lin && Strips.solved bil)

(* After a learning run on the serial engine, the Rete's final conflict
   set (chunks included) must be exactly the one the naive matcher
   computes from working memory. *)
let test_workload_conflict_sets_match_oracle () =
  List.iter
    (fun w ->
      let config =
        {
          Agent.default_config with
          Agent.learning = true;
          engine_mode = Psme_engine.Engine.Serial_mode;
        }
      in
      let agent = w.Workload.make ~config () in
      let s = Agent.run agent in
      Agent.flush_match agent;
      let net = Agent.network agent in
      Alcotest.(check bool) (w.Workload.name ^ " learned chunks") true (s.Agent.chunks <> []);
      Alcotest.(check bool) (w.Workload.name ^ " ends with instantiations") true
        (Conflict_set.size net.Network.cs > 0);
      Alcotest.(check (list (pair string (list int))))
        (w.Workload.name ^ ": final conflict set = oracle")
        (Test_props.oracle_cs net (Agent.wm agent))
        (Test_props.rete_cs net))
    all

let suite =
  [
    Alcotest.test_case "production counts match paper" `Quick test_production_counts;
    Alcotest.test_case "eight-puzzle solves" `Quick test_eight_puzzle_solves;
    Alcotest.test_case "scramble is reachable" `Quick test_eight_puzzle_scramble_reachable;
    Alcotest.test_case "strips solves with door opening" `Quick test_strips_solves;
    Alcotest.test_case "strips monitor long chain" `Quick test_strips_monitor_long_chain;
    Alcotest.test_case "cypress derives quicksort" `Quick test_cypress_derives_quicksort;
    Alcotest.test_case "cypress chunks large" `Quick test_cypress_chunks_are_large;
    Alcotest.test_case "chunks bigger than task productions" `Quick
      test_chunks_bigger_than_task_productions;
    Alcotest.test_case "transfer on all tasks" `Slow test_transfer_all_tasks;
    Alcotest.test_case "chunk installation fast" `Quick test_chunk_installation_is_fast;
    Alcotest.test_case "sharing reduces new nodes" `Quick test_sharing_reduces_new_nodes;
    Alcotest.test_case "soar loop on sim engine" `Quick test_workloads_under_sim_engine;
    Alcotest.test_case "bilinear strips equivalent" `Slow test_bilinear_strips_equivalent;
    Alcotest.test_case "final conflict sets = oracle" `Slow
      test_workload_conflict_sets_match_oracle;
  ]
