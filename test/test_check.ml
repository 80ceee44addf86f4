(* The correctness-analysis suite: network/state verifier and race
   detector (the static analyzer has its own suite, Test_analyze). The
   fault-injection tests are the point: a verifier that never fires is
   indistinguishable from no verifier, so each analyzer is shown both
   clean on correct runs and loud under a seeded §5.2 / §6.1 bug. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine
open Psme_check

let blocks_schema () =
  let schema = Schema.create () in
  Schema.declare schema "block" [ "name"; "color"; "on"; "state" ];
  schema

let parse schema src = Parser.parse_production schema src

let build_net ?config schema srcs =
  let net = Network.create ?config schema in
  List.iter (fun src -> ignore (Build.add_production net (parse schema src))) srcs;
  net

let block_wme wm ~name ~color ~on =
  let cls = Sym.intern "block" in
  let fields = Array.make 4 Value.nil in
  fields.(0) <- Value.sym name;
  fields.(1) <- Value.sym color;
  if on <> "" then fields.(2) <- Value.sym on;
  Wm.add wm ~cls ~fields

let base_prods =
  [
    "(p graspable (block ^name <x> ^color blue) -(block ^on <x>) --> (write ok))";
    "(p tower (block ^name <a> ^on <b>) (block ^name <b>) --> (write ok))";
    "(p reds (block ^color red ^on <x>) (block ^name <x> ^color red) --> (write ok))";
  ]

(* a small scene: towers a-on-b-on-c plus loose blocks *)
let seed_scene wm =
  [
    block_wme wm ~name:"a" ~color:"red" ~on:"b";
    block_wme wm ~name:"b" ~color:"red" ~on:"c";
    block_wme wm ~name:"c" ~color:"blue" ~on:"";
    block_wme wm ~name:"d" ~color:"blue" ~on:"";
    block_wme wm ~name:"e" ~color:"green" ~on:"d";
  ]

let adds wmes = List.map (fun w -> (Task.Add, w)) wmes

(* --- structural verifier ---------------------------------------------------- *)

let test_structure_clean () =
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let r = Verify.structure net in
  Alcotest.(check int) "no errors" 0 (Finding.errors r);
  Alcotest.(check bool) "checked something" true (r.Finding.checked > 0)

let test_structure_dangling_successor () =
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  (* wire an edge to a node that does not exist *)
  let some_id =
    Network.fold_nodes net ~init:0 ~f:(fun a n -> max a n.Network.id)
  in
  Network.add_successor net ~of_:some_id ~node:999_999 ~port:Network.P_left;
  let r = Verify.structure net in
  Alcotest.(check bool) "dangling edge detected" true (Finding.errors r > 0)

let test_structure_lost_pnode () =
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let pm = List.hd (Network.productions net) in
  Hashtbl.remove net.Network.beta pm.Network.pnode;
  let r = Verify.structure net in
  Alcotest.(check bool) "lost P-node detected" true (Finding.errors r > 0)

(* The jumptable is the only dispatch path: a live node whose program is
   gone would absorb its tasks silently, and a program that outlives its
   node is stale. *)
let test_structure_jumptable () =
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let jumptable r =
    List.filter_map
      (fun f -> if f.Finding.rule = "jumptable" then Some f.Finding.subject else None)
      r.Finding.findings
  in
  let pm = List.hd (Network.productions net) in
  Program.clear_node net pm.Network.pnode;
  Alcotest.(check (list string)) "live node without a program"
    [ Printf.sprintf "node %d" pm.Network.pnode ]
    (jumptable (Verify.structure net));
  let net = build_net schema base_prods in
  let pm = List.hd (Network.productions net) in
  Hashtbl.remove net.Network.beta pm.Network.pnode;
  Alcotest.(check (list string)) "program slot outliving its node" [ "network" ]
    (jumptable (Verify.structure net))

(* --- state verifier ---------------------------------------------------------- *)

let test_state_clean () =
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let wm = Wm.create () in
  let wmes = seed_scene wm in
  ignore (Serial.run_changes net (adds wmes));
  (* delete one and verify against the surviving wm *)
  let victim = List.nth wmes 4 in
  Wm.remove wm victim;
  ignore (Serial.run_changes net [ (Task.Delete, victim) ]);
  let r = Verify.state net (Wm.to_list wm) in
  Alcotest.(check int) "no diffs" 0 (List.length r.Finding.findings)

let test_state_clean_after_update () =
  (* §5.2 done right: add a production at run time, deliver through the
     filtered update, and the state verifier stays silent *)
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let wm = Wm.create () in
  ignore (Serial.run_changes net (adds (seed_scene wm)));
  let chunk =
    parse schema
      "(p chunk (block ^name <a> ^on <b>) (block ^name <b> ^color red) --> (write ok))"
  in
  let res = Build.add_production net chunk in
  let tasks = Update.update_tasks net wm res in
  ignore (Serial.run_tasks net tasks);
  let r = Verify.state net (Wm.to_list wm) in
  Alcotest.(check int) "no diffs after update" 0 (List.length r.Finding.findings)

let test_state_detects_unfiltered_update () =
  (* the injected §5.2 fault: re-seed working memory WITHOUT the
     min-node-id filter, so pre-existing shared nodes receive every wme
     a second time — refcounts inflate and duplicates appear *)
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let wm = Wm.create () in
  ignore (Serial.run_changes net (adds (seed_scene wm)));
  let chunk =
    parse schema
      "(p chunk (block ^name <a> ^on <b>) (block ^name <b> ^color red) --> (write ok))"
  in
  ignore (Build.add_production net chunk);
  let tasks = ref [] in
  Wm.iter
    (fun w ->
      let seeded, _ = Runtime.seed_wme_change net Task.Add w in
      tasks := List.rev_append seeded !tasks)
    wm;
  ignore (Serial.run_tasks net !tasks);
  let r = Verify.state net (Wm.to_list wm) in
  Alcotest.(check bool) "unfiltered update detected" true (Finding.errors r > 0)

(* --- seed_wme_change boundaries (the §5.2 filter) ---------------------------- *)

let test_seed_filter_threshold () =
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let wm = Wm.create () in
  ignore (Serial.run_changes net (adds (seed_scene wm)));
  let threshold = Network.next_id net in
  let chunk =
    parse schema
      "(p chunk (block ^name <a> ^on <b>) (block ^name <b> ^color red) --> (write ok))"
  in
  let res = Build.add_production net chunk in
  Alcotest.(check int) "watermark = lowest new node id" threshold
    res.Build.first_new_id;
  Wm.iter
    (fun w ->
      let filtered, _ = Runtime.seed_wme_change ~min_node_id:threshold net Task.Add w in
      let all, _ = Runtime.seed_wme_change net Task.Add w in
      List.iter
        (fun t ->
          Alcotest.(check bool) "filtered delivery targets only new nodes" true
            (Task.node t >= threshold))
        filtered;
      Alcotest.(check bool) "filter only removes deliveries" true
        (List.length filtered <= List.length all);
      (* a threshold above every node suppresses everything *)
      let none, _ =
        Runtime.seed_wme_change ~min_node_id:(Network.next_id net) net Task.Add w
      in
      Alcotest.(check int) "past-the-end threshold delivers nothing" 0
        (List.length none))
    wm

let test_update_empty_batch () =
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let wm = Wm.create () in
  ignore (Serial.run_changes net (adds (seed_scene wm)));
  Alcotest.(check int) "empty batch yields no tasks" 0
    (List.length (Update.update_tasks_batch net wm []))

let test_update_fully_shared_chunk () =
  (* a chunk identical to an existing production shares every beta node:
     only a fresh P-node is created, the update replays the last shared
     node into it, and the new production matches exactly like the old *)
  let schema = blocks_schema () in
  let net = build_net schema base_prods in
  let wm = Wm.create () in
  ignore (Serial.run_changes net (adds (seed_scene wm)));
  let twin =
    parse schema "(p tower-twin (block ^name <a> ^on <b>) (block ^name <b>) --> (write ok))"
  in
  let res = Build.add_production net twin in
  Alcotest.(check int) "only the P-node is new" 1
    (List.length res.Build.new_beta_nodes);
  let tasks = Update.update_tasks_batch net wm [ res ] in
  ignore (Serial.run_tasks net tasks);
  let insts name =
    Conflict_set.to_list net.Network.cs
    |> List.filter (fun i -> Sym.name i.Conflict_set.prod = name)
    |> List.length
  in
  Alcotest.(check int) "twin matches like the original" (insts "tower")
    (insts "tower-twin");
  Alcotest.(check bool) "twin matches at all" true (insts "tower-twin" > 0);
  let r = Verify.full net (Wm.to_list wm) in
  Alcotest.(check int) "verifier silent" 0 (Finding.errors r)

(* --- state verifier as a property (satellite: random chunk batches) ---------- *)

let prop_update_state_verified engine_name run =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "random chunk batch leaves zero state diffs (%s)" engine_name)
    (QCheck.pair Test_props.arb_productions
       (QCheck.pair Test_props.arb_productions Test_props.arb_history))
    (fun (early, (late, history)) ->
      let schema = blocks_schema () in
      let net = Network.create schema in
      ignore (Test_props.try_build net schema early);
      let wm = Wm.create () in
      let batches = Test_props.realize wm history in
      List.iter (fun b -> run net b) batches;
      (* the chunk batch arrives at quiescence, §5.2-style *)
      let results = Test_props.try_build net schema late in
      let tasks = Update.update_tasks_batch net wm results in
      ignore (Serial.run_tasks net tasks);
      let r = Verify.full net (Wm.to_list wm) in
      if Finding.errors r > 0 then
        QCheck.Test.fail_reportf "verifier found diffs:@ %a" Finding.pp r
      else true)

let prop_update_state_verified_serial =
  prop_update_state_verified "serial" (fun net b ->
      ignore (Serial.run_changes net b))

let prop_update_state_verified_sim =
  let cfg = { Sim.procs = 5; queues = Parallel.Multiple_queues; collect_trace = false } in
  prop_update_state_verified "sim" (fun net b -> ignore (Sim.run_changes cfg net b))

(* The §5.2 update as the whole alpha walk would build it: replay each
   old parent of a new node, then push every wme through the alpha
   network with the node-ID filter. *)
let reference_update_tasks net wm results =
  let first_new =
    List.fold_left (fun a r -> min a r.Build.first_new_id) max_int results
  in
  let replayed =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun nid ->
            match (Network.node net nid).Network.parent with
            | Some pid when pid < first_new ->
              let parent = Network.node net pid in
              let port =
                match List.assoc_opt nid (Network.successors parent) with
                | Some p -> p
                | None -> Network.P_left
              in
              Program.replay_parent net ~parent ~child:nid ~port
            | Some _ | None -> [])
          r.Build.new_beta_nodes)
      results
  in
  let seeded = ref [] in
  Wm.iter
    (fun w ->
      let ts, _ = Runtime.seed_wme_change ~min_node_id:first_new net Task.Add w in
      seeded := List.rev_append ts !seeded)
    wm;
  replayed @ List.rev !seeded

let same_task a b =
  Task.node a = Task.node b
  && Task.flag a = Task.flag b
  &&
  match a, b with
  | Task.Right { wme = w1; _ }, Task.Right { wme = w2; _ } -> w1 == w2
  | Task.Left { token = t1; _ }, Task.Left { token = t2; _ }
  | Task.Rtok { token = t1; _ }, Task.Rtok { token = t2; _ } ->
    Token.equal t1 t2
  | (Task.Left _ | Task.Right _ | Task.Rtok _), _ -> false

let prop_update_tasks_match_reference =
  QCheck.Test.make ~count:400 ~name:"update tasks equal the reference alpha walk"
    (QCheck.pair Test_props.arb_productions
       (QCheck.pair Test_props.arb_productions Test_props.arb_history))
    (fun (early, (late, history)) ->
      let schema = blocks_schema () in
      let net = Network.create schema in
      ignore (Test_props.try_build net schema early);
      let wm = Wm.create () in
      List.iter
        (fun b -> ignore (Serial.run_changes net b))
        (Test_props.realize wm history);
      let results = Test_props.try_build net schema late in
      let expected = reference_update_tasks net wm results in
      let got = Update.update_tasks_batch net wm results in
      if List.length got = List.length expected && List.for_all2 same_task got expected
      then true
      else
        QCheck.Test.fail_reportf "update tasks@ %a@ differ from the reference@ %a"
          (Format.pp_print_list ~pp_sep:Format.pp_print_space Task.pp)
          got
          (Format.pp_print_list ~pp_sep:Format.pp_print_space Task.pp)
          expected)

(* Shipped sources (programs/), shared with Test_analyze. *)
let read_file path =
  let path =
    (* dune runtest sandboxes the test one level below the workspace *)
    List.find_opt Sys.file_exists [ path; Filename.concat ".." path ]
    |> Option.value ~default:path
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- race detector ------------------------------------------------------------ *)

let bits = Psme_obs.Stream.access_bits

let test_races_synthetic () =
  (* two unordered tasks on different processors, same hash line, both
     writing without the lock: exactly one racy pair *)
  let tr = Psme_obs.Trace.create () in
  let open Psme_obs.Trace in
  emit tr Task_start ~t_us:0. ~proc:0 ~task:1 ~parent:(-1) ();
  emit tr Task_start ~t_us:1. ~proc:1 ~task:2 ~parent:(-1) ();
  emit tr Mem_access ~t_us:2. ~proc:0 ~node:10 ~task:1 ~scanned:3
    ~emitted:(bits ~write:true ~locked:false) ();
  emit tr Mem_access ~t_us:3. ~proc:1 ~node:11 ~task:2 ~scanned:3
    ~emitted:(bits ~write:true ~locked:false) ();
  emit tr Task_end ~t_us:4. ~proc:0 ~task:1 ~parent:(-1) ();
  emit tr Task_end ~t_us:5. ~proc:1 ~task:2 ~parent:(-1) ();
  let r = Races.analyze (events tr) in
  Alcotest.(check int) "one racy pair" 1 r.Races.n_races;
  Alcotest.(check int) "both accesses seen" 2 r.Races.n_accesses;
  Alcotest.(check bool) "reported as error" true
    (Finding.errors (Races.to_findings r) > 0)

let test_races_ordered_and_locked () =
  let open Psme_obs.Trace in
  (* spawn-ordered tasks do not race even unlocked... *)
  let tr = create () in
  emit tr Task_start ~t_us:0. ~proc:0 ~task:1 ~parent:(-1) ();
  emit tr Mem_access ~t_us:1. ~proc:0 ~node:10 ~task:1 ~scanned:3
    ~emitted:(bits ~write:true ~locked:false) ();
  emit tr Task_end ~t_us:2. ~proc:0 ~task:1 ~parent:(-1) ();
  emit tr Task_start ~t_us:3. ~proc:1 ~task:2 ~parent:1 ();
  emit tr Mem_access ~t_us:4. ~proc:1 ~node:11 ~task:2 ~scanned:3
    ~emitted:(bits ~write:true ~locked:false) ();
  emit tr Task_end ~t_us:5. ~proc:1 ~task:2 ~parent:1 ();
  Alcotest.(check int) "spawn edge orders the pair" 0
    (Races.analyze (events tr)).Races.n_races;
  (* ...and concurrent tasks do not race when both hold the line lock *)
  let tr2 = create () in
  emit tr2 Task_start ~t_us:0. ~proc:0 ~task:1 ~parent:(-1) ();
  emit tr2 Task_start ~t_us:1. ~proc:1 ~task:2 ~parent:(-1) ();
  emit tr2 Mem_access ~t_us:2. ~proc:0 ~node:10 ~task:1 ~scanned:3
    ~emitted:(bits ~write:true ~locked:true) ();
  emit tr2 Mem_access ~t_us:3. ~proc:1 ~node:11 ~task:2 ~scanned:3
    ~emitted:(bits ~write:true ~locked:true) ();
  emit tr2 Task_end ~t_us:4. ~proc:0 ~task:1 ~parent:(-1) ();
  emit tr2 Task_end ~t_us:5. ~proc:1 ~task:2 ~parent:(-1) ();
  Alcotest.(check int) "lockset discharges the pair" 0
    (Races.analyze (events tr2)).Races.n_races

let test_races_double_pop () =
  let open Psme_obs.Trace in
  let tr = create () in
  emit tr Queue_pop ~t_us:0. ~proc:0 ~task:7 ();
  emit tr Queue_pop ~t_us:1. ~proc:1 ~task:7 ();
  let r = Races.analyze (events tr) in
  Alcotest.(check (list (pair int int))) "double pop flagged" [ (0, 7) ]
    r.Races.double_pops

let sim_trace ?(lines = Network.default_config.Network.lines) () =
  let schema = blocks_schema () in
  let config = { Network.default_config with Network.lines } in
  let net = build_net ~config schema base_prods in
  let wm = Wm.create () in
  let wmes =
    seed_scene wm
    @ [
        block_wme wm ~name:"f" ~color:"red" ~on:"a";
        block_wme wm ~name:"g" ~color:"red" ~on:"f";
        block_wme wm ~name:"h" ~color:"blue" ~on:"g";
      ]
  in
  let tracer = Psme_obs.Trace.create () in
  let cfg = { Sim.procs = 4; queues = Parallel.Multiple_queues; collect_trace = false } in
  ignore (Sim.run_changes ~tracer cfg net (adds wmes));
  Psme_obs.Trace.events tracer

let test_races_sim_clean () =
  let r = Races.analyze (sim_trace ()) in
  Alcotest.(check bool) "memory accesses traced" true (r.Races.n_accesses > 0);
  Alcotest.(check int) "every access locked" 0 r.Races.n_unlocked;
  Alcotest.(check int) "no races" 0 r.Races.n_races;
  Alcotest.(check int) "no double pops" 0 (List.length r.Races.double_pops)

let test_races_detects_lock_elision () =
  (* the injected §6.1 fault: elide the hash-line locks; with one line,
     every concurrent task collides and the detector must fire *)
  Runtime.set_lock_elision true;
  let events =
    Fun.protect
      ~finally:(fun () -> Runtime.set_lock_elision false)
      (fun () -> sim_trace ~lines:1 ())
  in
  let r = Races.analyze events in
  Alcotest.(check bool) "unlocked accesses observed" true (r.Races.n_unlocked > 0);
  Alcotest.(check bool) "races detected" true (r.Races.n_races > 0);
  Alcotest.(check bool) "reported as errors" true
    (Finding.errors (Races.to_findings r) > 0)

let suite =
  [
    Alcotest.test_case "verify: structure clean" `Quick test_structure_clean;
    Alcotest.test_case "verify: dangling successor" `Quick
      test_structure_dangling_successor;
    Alcotest.test_case "verify: lost pnode" `Quick test_structure_lost_pnode;
    Alcotest.test_case "verify: jumptable" `Quick test_structure_jumptable;
    Alcotest.test_case "verify: state clean" `Quick test_state_clean;
    Alcotest.test_case "verify: state clean after update" `Quick
      test_state_clean_after_update;
    Alcotest.test_case "verify: unfiltered update detected" `Quick
      test_state_detects_unfiltered_update;
    Alcotest.test_case "update: seed filter threshold" `Quick
      test_seed_filter_threshold;
    Alcotest.test_case "update: empty batch" `Quick test_update_empty_batch;
    Alcotest.test_case "update: fully shared chunk" `Quick
      test_update_fully_shared_chunk;
    Alcotest.test_case "races: synthetic pair" `Quick test_races_synthetic;
    Alcotest.test_case "races: ordered and locked" `Quick
      test_races_ordered_and_locked;
    Alcotest.test_case "races: double pop" `Quick test_races_double_pop;
    Alcotest.test_case "races: sim run clean" `Quick test_races_sim_clean;
    Alcotest.test_case "races: lock elision detected" `Quick
      test_races_detects_lock_elision;
    QCheck_alcotest.to_alcotest prop_update_state_verified_serial;
    QCheck_alcotest.to_alcotest prop_update_state_verified_sim;
    QCheck_alcotest.to_alcotest prop_update_tasks_match_reference;
  ]
