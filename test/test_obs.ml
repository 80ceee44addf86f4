(* Unit tests for the observability layer: the JSON writer/validator,
   the metrics registry, the event tracer's ring buffer, the Chrome
   trace exporter, the per-node/per-production profiler and the
   critical-path analyzer — plus the [Cycle.to_json] field-name
   contract. *)

open Psme_ops5
open Psme_obs
open Psme_rete
open Psme_engine

(* --- json --------------------------------------------------------------- *)

let test_json_writer () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("i", Json.Int (-3));
        ("f", Json.Float 1.5);
        ("inf", Json.Float Float.infinity);
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Int 0 ]);
      ]
  in
  let s = Json.to_string doc in
  Alcotest.(check string)
    "rendering"
    {|{"s":"a\"b\\c\nd","i":-3,"f":1.5,"inf":null,"l":[null,true,0]}|}
    s;
  Alcotest.(check bool) "writer output validates" true
    (Result.is_ok (Json.validate s))

let test_json_validate () =
  let ok s = Alcotest.(check bool) (s ^ " accepted") true (Result.is_ok (Json.validate s)) in
  let bad s = Alcotest.(check bool) (s ^ " rejected") false (Result.is_ok (Json.validate s)) in
  ok {|{"a": [1, 2.5, -3e2, "xé", {}], "b": null}|};
  ok "[]";
  ok "  true ";
  bad "";
  bad "{";
  bad {|{"a": 1,}|};
  bad "[1 2]";
  bad {|"unterminated|};
  bad "[1] trailing"

(* --- metrics ------------------------------------------------------------- *)

let test_metrics_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter value" 5 (Metrics.value c);
  Metrics.observe r "a.gauge" 2.;
  Metrics.observe r "a.gauge" 6.;
  Metrics.set_probe r "a.probe" (fun () -> 42.);
  let snap = Metrics.snapshot r in
  let get name = List.assoc name snap in
  Alcotest.(check (float 0.)) "counter in snapshot" 5. (get "a.count");
  Alcotest.(check (float 0.)) "gauge count" 2. (get "a.gauge.count");
  Alcotest.(check (float 1e-9)) "gauge mean" 4. (get "a.gauge.mean");
  Alcotest.(check (float 0.)) "gauge total" 8. (get "a.gauge.total");
  Alcotest.(check (float 0.)) "probe sampled" 42. (get "a.probe");
  Alcotest.(check bool) "sorted by name" true
    (List.sort compare snap = snap);
  (* same-name lookups share state; delta meters a region *)
  Metrics.incr (Metrics.counter r "a.count");
  let snap' = Metrics.snapshot r in
  Alcotest.(check (float 0.)) "delta" 1.
    (List.assoc "a.count" (Metrics.delta ~before:snap ~after:snap'));
  Alcotest.(check bool) "json validates" true
    (Result.is_ok (Json.validate (Metrics.to_json snap')));
  Metrics.reset r;
  Alcotest.(check (float 0.)) "reset zeroes counters" 0.
    (List.assoc "a.count" (Metrics.snapshot r));
  Alcotest.(check (float 0.)) "probes survive reset" 42.
    (List.assoc "a.probe" (Metrics.snapshot r))

(* --- tracer ring ---------------------------------------------------------- *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:9 () in
  Alcotest.(check int) "capacity rounded to a power of two" 16 (Trace.capacity tr);
  for i = 0 to 19 do
    Trace.emit tr Trace.Task_end ~t_us:(float_of_int i) ~task:i ()
  done;
  Alcotest.(check int) "length capped" 16 (Trace.length tr);
  Alcotest.(check int) "dropped counted" 4 (Trace.dropped tr);
  let evs = Trace.events tr in
  Alcotest.(check int) "oldest overwritten" 4 evs.(0).Trace.task;
  Alcotest.(check int) "newest kept" 19 evs.(15).Trace.task;
  Array.iteri
    (fun i e ->
      if i > 0 then
        Alcotest.(check bool) "time-ordered" true
          (e.Trace.t_us >= evs.(i - 1).Trace.t_us))
    evs;
  Trace.clear tr;
  Alcotest.(check int) "clear empties" 0 (Trace.length tr);
  (* base offsets the emitted time; cycle is stamped *)
  Trace.set_base tr 100.;
  Trace.set_cycle tr 7;
  Trace.emit tr Trace.Task_start ~t_us:2.5 ();
  let e = (Trace.events tr).(0) in
  Alcotest.(check (float 0.)) "base applied" 102.5 e.Trace.t_us;
  Alcotest.(check int) "cycle stamped" 7 e.Trace.cycle

(* --- traced engine runs ---------------------------------------------------- *)

let procs = 4

let traced_run ?(changes = 30) () =
  let schema = Fixtures.schema_with () in
  let prods =
    Fixtures.parse_prods schema
      (Fixtures.graspable_src
      ^ {|
(p stack-pairs
  (block ^name <x> ^color blue)
  (block ^on <x>)
  -->
  (make place ^name <x>))
|})
  in
  let net = Network.create schema in
  ignore (Build.add_all net prods);
  let tracer = Trace.create () in
  let engine =
    Engine.create ~tracer
      (Engine.Sim_mode
         { Sim.procs; queues = Psme_engine.Parallel.Multiple_queues; collect_trace = false })
      net
  in
  let wm = Wm.create () in
  let names = [ "a"; "b"; "c"; "d"; "e" ] in
  for i = 0 to (changes / 10) - 1 do
    let batch =
      List.concat_map
        (fun n ->
          let w1 =
            Fixtures.add_wme schema wm "block"
              [ ("name", Fixtures.sym n); ("color", Fixtures.sym "blue");
                ("state", Fixtures.int i) ]
          in
          let w2 =
            Fixtures.add_wme schema wm "block"
              [ ("on", Fixtures.sym n); ("state", Fixtures.int i) ]
          in
          [ (Task.Add, w1); (Task.Add, w2) ])
        names
    in
    ignore (Engine.run_changes engine batch)
  done;
  (net, engine, tracer)

let test_chrome_trace_valid () =
  let _, _, tracer = traced_run () in
  let events = Trace.events tracer in
  Alcotest.(check bool) "events recorded" true (Array.length events > 0);
  let s = Chrome_trace.to_string events in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e);
  let lanes = Chrome_trace.lanes events in
  Alcotest.(check bool)
    (Printf.sprintf "at most one lane per proc (%d)" (List.length lanes))
    true
    (List.length lanes <= procs && lanes <> []);
  List.iter
    (fun l -> Alcotest.(check bool) "lane ids are procs" true (l >= 0 && l < procs))
    lanes

let test_profile_totals_match_serial () =
  let net, engine, tracer = traced_run () in
  let node_kind id =
    match Hashtbl.find_opt net.Network.beta id with
    | Some n -> (
      match n.Network.kind with Network.Pnode _ -> "pnode" | _ -> "other")
    | None -> "?"
  in
  let node_prods _ = [] in
  let prof = Profile.of_events ~node_kind ~node_prods (Trace.events tracer) in
  let totals = Engine.totals engine in
  let alpha_us =
    float_of_int totals.Cycle.alpha_activations *. Cost.default.Cost.alpha_act_us
  in
  Alcotest.(check int) "every task profiled" totals.Cycle.tasks prof.Profile.total_tasks;
  Alcotest.(check (float 0.5)) "task time partitions serial time"
    totals.Cycle.serial_us
    (prof.Profile.total_us +. alpha_us);
  (* the production table partitions the same total *)
  let prod_sum =
    List.fold_left (fun a r -> a +. r.Profile.pr_us) 0. prof.Profile.prods
  in
  Alcotest.(check (float 0.5)) "prod rows partition task time"
    prof.Profile.total_us prod_sum

let test_critical_path_bounds () =
  let _, engine, tracer = traced_run () in
  let reports = Critical_path.per_cycle (Trace.events tracer) in
  let cycles =
    List.filter (fun (s : Cycle.stats) -> s.Cycle.tasks > 0) (Engine.history engine)
  in
  Alcotest.(check int) "one report per non-empty cycle" (List.length cycles)
    (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "cycle %d: chain %.1f <= makespan %.1f"
           r.Critical_path.cp_cycle r.Critical_path.cp_us r.Critical_path.cp_makespan_us)
        true
        (r.Critical_path.cp_us <= r.Critical_path.cp_makespan_us +. 1e-6);
      Alcotest.(check bool) "chain has tasks" true (r.Critical_path.cp_len >= 1);
      Alcotest.(check bool) "serial >= chain" true
        (r.Critical_path.cp_serial_us >= r.Critical_path.cp_us -. 1e-6))
    reports;
  (* the spawn-order invariant the analyzer relies on *)
  Array.iter
    (fun e ->
      if e.Trace.kind = Trace.Task_end && e.Trace.parent >= 0 then
        Alcotest.(check bool) "parent spawned before child" true
          (e.Trace.parent < e.Trace.task))
    (Trace.events tracer)

(* The acceptance bound on a real task: in a cycle with enough work to
   keep the simulated processes busy, the longest spawn chain is never
   longer than the makespan and never shorter than makespan/P (the
   schedule is within a factor P of chain-optimal). Queue overhead can
   break the lower bound on toy cycles, so this runs the paper's
   Eight-puzzle. *)
let test_eight_puzzle_chain_bounds () =
  let tracer = Trace.create () in
  let config =
    {
      Psme_soar.Agent.default_config with
      Psme_soar.Agent.learning = false;
      tracer = Some tracer;
      engine_mode =
        Engine.Sim_mode
          { Sim.procs = 8; queues = Psme_engine.Parallel.Multiple_queues;
            collect_trace = false };
    }
  in
  let w = Psme_workloads.Eight_puzzle.workload in
  let agent = w.Psme_workloads.Workload.make ~config () in
  ignore (Psme_soar.Agent.run agent);
  let reports = Critical_path.per_cycle (Trace.events tracer) in
  match Critical_path.longest reports with
  | None -> Alcotest.fail "no traced cycles"
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "chain %.0f <= makespan %.0f" r.Critical_path.cp_us
         r.Critical_path.cp_makespan_us)
      true
      (r.Critical_path.cp_us <= r.Critical_path.cp_makespan_us +. 1e-6);
    Alcotest.(check bool)
      (Printf.sprintf "chain %.0f >= makespan/8 %.0f" r.Critical_path.cp_us
         (r.Critical_path.cp_makespan_us /. 8.))
      true
      (r.Critical_path.cp_us >= r.Critical_path.cp_makespan_us /. 8.)

let test_cycle_to_json_fields () =
  let stats =
    {
      Cycle.tasks = 3;
      alpha_activations = 2;
      serial_us = 10.5;
      makespan_us = 5.25;
      queue_spins = 1.;
      failed_pops = 4;
      scanned = 7;
      emitted = 6;
      wall_ns = 12345;
      trace = [| (0., 1) |];
    }
  in
  let s = Cycle.to_json stats in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Cycle.to_json invalid: %s" e);
  (* the field names are a stable contract for `soar_cli profile --json` *)
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (let re = Printf.sprintf "\"%s\":" field in
         let rec find i =
           i + String.length re <= String.length s
           && (String.sub s i (String.length re) = re || find (i + 1))
         in
         find 0))
    [
      "tasks"; "alpha_activations"; "serial_us"; "makespan_us"; "queue_spins";
      "failed_pops"; "scanned"; "emitted"; "wall_ns"; "speedup";
    ]

(* --- speedup-loss attribution --------------------------------------------- *)

let check_ledgers name ledgers =
  Alcotest.(check bool) (name ^ ": ledgers produced") true (ledgers <> []);
  List.iter
    (fun l ->
      match Attribution.check l with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    ledgers

let test_attribution_invariant () =
  let _, _, tracer = traced_run () in
  let ledgers =
    Attribution.per_cycle ~procs ~queue_op_us:Cost.default.Cost.queue_op_us
      (Trace.events tracer)
  in
  check_ledgers "traced run" ledgers;
  List.iter
    (fun l ->
      Alcotest.(check int) "one row per configured process" procs
        (List.length l.Attribution.a_workers);
      Alcotest.(check (list string)) "stable component names"
        [ "cp_residual"; "imbalance"; "queue"; "lock" ]
        (List.map fst (Attribution.components l));
      let wbusy =
        List.fold_left (fun s w -> s +. w.Attribution.w_busy_us) 0.
          l.Attribution.a_workers
      in
      Alcotest.(check (float 0.5)) "worker busy partitions cycle busy"
        l.Attribution.a_busy_us wbusy)
    ledgers

let run_workload_ledgers (w : Psme_workloads.Workload.t) ~procs =
  let tracer = Trace.create ~capacity:(1 lsl 21) () in
  let config =
    {
      Psme_soar.Agent.default_config with
      Psme_soar.Agent.learning = false;
      tracer = Some tracer;
      engine_mode =
        Engine.Sim_mode
          { Sim.procs; queues = Psme_engine.Parallel.Multiple_queues;
            collect_trace = false };
    }
  in
  let agent = w.Psme_workloads.Workload.make ~config () in
  ignore (Psme_soar.Agent.run agent);
  let cost = (Psme_soar.Agent.config agent).Psme_soar.Agent.cost in
  Attribution.per_cycle ~procs ~queue_op_us:cost.Cost.queue_op_us
    (Trace.events tracer)

(* The tentpole invariant on the paper's tasks: at every measured
   processor count the four ledger components sum to the measured gap
   and stay non-negative, cycle by cycle. *)
let attribution_workload_case (w : Psme_workloads.Workload.t) () =
  List.iter
    (fun p ->
      let name = Printf.sprintf "%s at %d procs" w.Psme_workloads.Workload.name p in
      check_ledgers name (run_workload_ledgers w ~procs:p))
    [ 1; 8; 11; 13 ]

(* Figure 6-6: the worst-parallelizing Eight-puzzle cycle is pinned
   down by its spawn chain — the ledger names the critical-path
   residual, not queue or lock overhead, as the dominant loss. *)
let test_attribution_worst_eight_puzzle () =
  let ledgers =
    run_workload_ledgers Psme_workloads.Eight_puzzle.workload ~procs:11
  in
  check_ledgers "eight-puzzle at 11 procs" ledgers;
  match Attribution.worst ledgers with
  | None -> Alcotest.fail "no traced cycles"
  | Some w ->
    let dom, _ = Attribution.dominant w in
    Alcotest.(check string)
      (Printf.sprintf "worst cycle %d dominated by the chain" w.Attribution.a_cycle)
      "cp_residual" dom

let test_attribution_json_contract () =
  let _, _, tracer = traced_run () in
  let ledgers =
    Attribution.per_cycle ~procs ~queue_op_us:Cost.default.Cost.queue_op_us
      (Trace.events tracer)
  in
  let doc =
    Attribution.to_json ~per_cycle:true ~task:"blocks"
      ~queue_op_us:Cost.default.Cost.queue_op_us ledgers
  in
  let s = Json.to_string doc in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attribution json invalid: %s" e);
  match Json.parse s with
  | Error e -> Alcotest.failf "attribution json does not parse: %s" e
  | Ok (Json.Obj fields) ->
    let get k = List.assoc_opt k fields in
    (match get "schema" with
    | Some (Json.Str "psme-attribution/1") -> ()
    | _ -> Alcotest.fail "schema tag missing or wrong");
    (match get "totals" with
    | Some (Json.Obj t) ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("totals." ^ k ^ " present") true
            (List.mem_assoc k t))
        [ "cycles"; "ideal_us"; "busy_us"; "gap_us"; "cp_residual_us";
          "imbalance_us"; "queue_us"; "lock_us"; "dominant" ]
    | _ -> Alcotest.fail "totals object missing");
    (match get "worst_cycle" with
    | Some (Json.Obj w) ->
      Alcotest.(check bool) "worst cycle carries dominant" true
        (List.mem_assoc "dominant" w)
    | Some Json.Null when ledgers = [] -> ()
    | _ -> Alcotest.fail "worst_cycle missing");
    (match get "cycles" with
    | Some (Json.List (Json.Obj c :: _)) ->
      (match List.assoc_opt "workers" c with
      | Some (Json.List ws) ->
        Alcotest.(check int) "per-worker rows in per-cycle json" procs
          (List.length ws)
      | _ -> Alcotest.fail "workers array missing")
    | _ -> Alcotest.fail "cycles array missing")
  | Ok _ -> Alcotest.fail "attribution json is not an object"

(* --- chrome trace export --------------------------------------------------- *)

(* Satellite: the exporter sorts events by timestamp and labels lanes
   with Perfetto metadata records; attribution ledgers ride along as a
   counter track. *)
let test_chrome_trace_sorted_metadata () =
  let tr = Trace.create () in
  Trace.set_cycle tr 1;
  (* deliberately emitted out of timeline order *)
  Trace.emit tr Trace.Queue_push ~t_us:260. ~proc:1 ~task:2 ();
  Trace.emit tr Trace.Task_end ~t_us:250. ~dur_us:50. ~proc:1 ~node:3 ~task:2 ();
  Trace.emit tr Trace.Task_end ~t_us:140. ~dur_us:40. ~proc:0 ~node:2 ~task:1 ();
  Trace.emit tr Trace.Queue_push ~t_us:60. ~proc:0 ~task:1 ();
  let events = Trace.events tr in
  let ledgers = Attribution.per_cycle ~procs:2 ~queue_op_us:30. events in
  let s = Chrome_trace.to_string ~ledgers events in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome trace invalid: %s" e);
  match Json.parse s with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok (Json.Obj fields) when List.mem_assoc "traceEvents" fields ->
    let records =
      match List.assoc "traceEvents" fields with
      | Json.List records -> records
      | _ -> Alcotest.fail "traceEvents is not an array"
    in
    let assoc k r = match r with Json.Obj f -> List.assoc_opt k f | _ -> None in
    let str v = match v with Some (Json.Str s) -> Some s | _ -> None in
    let metas =
      List.filter_map
        (fun r ->
          if str (assoc "ph" r) = Some "M" then str (assoc "name" r) else None)
        records
    in
    List.iter
      (fun n ->
        Alcotest.(check bool) (n ^ " metadata present") true (List.mem n metas))
      [ "process_name"; "thread_name"; "process_sort_index"; "thread_sort_index" ];
    let ts_of r =
      match assoc "ts" r with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let spans =
      List.filter_map
        (fun r -> if str (assoc "ph" r) = Some "X" then ts_of r else None)
        records
    in
    Alcotest.(check int) "both task spans exported" 2 (List.length spans);
    Alcotest.(check bool) "spans sorted by timestamp" true
      (List.sort compare spans = spans);
    let counters =
      List.filter
        (fun r ->
          str (assoc "ph" r) = Some "C"
          && str (assoc "name" r) = Some "speedup-loss")
        records
    in
    Alcotest.(check int) "one counter sample per ledger" (List.length ledgers)
      (List.length counters);
    List.iter
      (fun r ->
        match assoc "args" r with
        | Some (Json.Obj args) ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " counter track") true
                (List.mem_assoc k args))
            [ "cp_residual_us"; "imbalance_us"; "queue_us"; "lock_us" ]
        | _ -> Alcotest.fail "counter without args")
      counters
  | Ok _ -> Alcotest.fail "chrome trace is not a traceEvents object"

let suite =
  [
    Alcotest.test_case "json writer" `Quick test_json_writer;
    Alcotest.test_case "json validator" `Quick test_json_validate;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "trace ring buffer" `Quick test_trace_ring;
    Alcotest.test_case "chrome trace valid" `Quick test_chrome_trace_valid;
    Alcotest.test_case "profile totals = serial time" `Quick test_profile_totals_match_serial;
    Alcotest.test_case "critical path bounds" `Quick test_critical_path_bounds;
    Alcotest.test_case "eight-puzzle chain bounds" `Slow test_eight_puzzle_chain_bounds;
    Alcotest.test_case "cycle to_json contract" `Quick test_cycle_to_json_fields;
    Alcotest.test_case "attribution invariant" `Quick test_attribution_invariant;
    Alcotest.test_case "attribution json contract" `Quick test_attribution_json_contract;
    Alcotest.test_case "chrome trace sorted + metadata" `Quick
      test_chrome_trace_sorted_metadata;
    Alcotest.test_case "attribution invariant: strips" `Slow
      (attribution_workload_case Psme_workloads.Strips.workload);
    Alcotest.test_case "attribution invariant: cypress" `Slow
      (attribution_workload_case Psme_workloads.Cypress.workload);
    Alcotest.test_case "attribution invariant: eight-puzzle" `Slow
      (attribution_workload_case Psme_workloads.Eight_puzzle.workload);
    Alcotest.test_case "attribution worst cycle is chain-bound" `Slow
      test_attribution_worst_eight_puzzle;
  ]
