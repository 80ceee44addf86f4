(* The benchmark's own checks, on shortened passes run through the
   library: the metric names it prints are the ones BENCHMARK.json
   declares, the traced pass accounts for every task, the wall-time
   shares add up, the tracer lost nothing, draining it per decision
   keeps the speedup-loss ledgers whole, and the io-stream oracle agrees
   with the program. *)

open Perfbench_suite

let benchmark_json = "../../BENCHMARK.json"

let declared section =
  let ic = open_in_bin benchmark_json in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc =
    match Psme_obs.Json.parse src with Ok d -> d | Error e -> Alcotest.fail e
  in
  match Psme_obs.Json.member section doc with
  | Some (Psme_obs.Json.List ms) ->
    List.map
      (fun m ->
        match Psme_obs.Json.member "name" m with
        | Some (Psme_obs.Json.Str n) -> n
        | _ -> Alcotest.fail "metric without a name")
      ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ section)

(* strips with two operations per pass: three passes take well under a
   second *)
let short = { Workloads.strips with Workloads.pass_len = 2 }

let result =
  lazy (Suite.run ~micro_quota:0.01 ~seed:1 ~seconds:0.01 ~e2e:true ~layers:true short)

let names rows = List.map (fun (n, _, _) -> n) rows
let value rows name = match List.find_opt (fun (n, _, _) -> n = name) rows with
  | Some (_, _, v) -> v
  | None -> Alcotest.fail ("no metric " ^ name)

let test_names () =
  let r = Lazy.force result in
  Alcotest.(check (list string)) "end_to_end" (declared "end_to_end") (names r.Suite.e2e);
  Alcotest.(check (list string)) "per_layer" (declared "per_layer") (names r.Suite.layers)

let test_checks_pass () =
  let r = Lazy.force result in
  Alcotest.(check (list (pair string string))) "no failed operation" [] r.Suite.failures

let test_kinds_cover_tasks () =
  let t = Layers.traced_pass Workloads.strips in
  let by_kind = List.fold_left (fun a (_, c) -> a + c.Layers.k_tasks) 0 t.Layers.per_kind in
  Alcotest.(check int) "per-kind tasks = engine tasks"
    t.Layers.traced.Layers.run.Measure.totals.Psme_engine.Cycle.tasks by_kind;
  Alcotest.(check int) "unknown kinds" 0 (List.assoc "?" t.Layers.per_kind).Layers.k_tasks

let test_shares_add_up () =
  let rows = (Lazy.force result).Suite.layers in
  let parts =
    [
      "engine.match_share"; "soar.decide.share"; "soar.act.share";
      "rete.build.chunk_compile_share"; "soar.chunker.share"; "soar.agent.residual_share";
    ]
  in
  let total = List.fold_left (fun a n -> a +. value rows n) 0. parts in
  Alcotest.(check (float 1e-9)) "shares of run wall time" 1. total;
  List.iter
    (fun n ->
      if value rows n < 0. then Alcotest.failf "%s is negative: %g" n (value rows n))
    parts

let test_nothing_dropped () =
  Alcotest.(check (float 0.)) "obs.trace_dropped" 0.
    (value (Lazy.force result).Suite.layers "obs.trace_dropped")

(* Ledgers computed decision by decision, as the drained sim passes do,
   equal the ledgers of the whole run's events. *)
let test_drained_ledgers () =
  let procs = 13 and queue_op_us = Psme_engine.Cost.default.Psme_engine.Cost.queue_op_us in
  let chunks = ref [] in
  let pass =
    Layers.run_traced
      ~config:(Measure.sim_config ~procs Workloads.strips)
      ~consume:(fun _ events -> chunks := events :: !chunks)
      Workloads.strips
  in
  Alcotest.(check int) "dropped" 0 pass.Layers.dropped;
  let chunks = List.rev !chunks in
  Alcotest.(check bool) "several drains" true (List.length chunks > 1);
  let t l =
    Psme_obs.Attribution.totals_components (Psme_obs.Attribution.totals l)
  in
  let per_chunk =
    List.concat_map (Psme_obs.Attribution.per_cycle ~procs ~queue_op_us) chunks
  in
  let whole = Psme_obs.Attribution.per_cycle ~procs ~queue_op_us (Array.concat chunks) in
  Alcotest.(check int) "cycles" (List.length whole) (List.length per_chunk);
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check (float 1e-6)) name a b)
    (t whole) (t per_chunk)

let test_io_oracle () =
  List.iter
    (fun seed ->
      let p = Workloads.io_params ~ticks:10 seed in
      let agent = Psme_workloads.Io_stream.make_agent ~params:p () in
      ignore (Psme_soar.Agent.run agent);
      Alcotest.(check int)
        (Printf.sprintf "alerts, seed %d" seed)
        (Workloads.io_expected_alerts p)
        (Psme_workloads.Io_stream.alerts agent))
    [ 3; 7; 101; 102 ]

(* A negative seed picks operations from the same suites as a positive
   one. *)
let test_negative_seed () =
  List.iter
    (fun (w : Workloads.t) ->
      let labels seed =
        List.sort_uniq compare
          (List.init w.Workloads.pass_len (fun j -> (w.Workloads.op ~seed (j + 1)).Workloads.label))
      in
      let suite = labels 7 in
      Alcotest.(check (list string)) (w.Workloads.name ^ " pass") suite (labels (-7));
      Alcotest.(check bool)
        (w.Workloads.name ^ " warm-up")
        true
        (List.mem (w.Workloads.op ~seed:(-7) 0).Workloads.label suite))
    Workloads.all

let test_result_line () =
  let line = Report.result_line [ Lazy.force result ] in
  match Psme_obs.Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    List.iter
      (fun k ->
        if Psme_obs.Json.member k doc = None then Alcotest.failf "result line lacks %s" k)
      [ "correct"; "attempted"; "failed"; "metrics" ]

let () =
  Alcotest.run "perfbench"
    [
      ( "suite",
        [
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_names;
          Alcotest.test_case "operations pass their checks" `Quick test_checks_pass;
          Alcotest.test_case "node kinds cover every task" `Quick test_kinds_cover_tasks;
          Alcotest.test_case "wall-time shares add up" `Quick test_shares_add_up;
          Alcotest.test_case "traced passes drop no event" `Quick test_nothing_dropped;
          Alcotest.test_case "drained traces give whole-run ledgers" `Quick
            test_drained_ledgers;
          Alcotest.test_case "io-stream alert oracle" `Quick test_io_oracle;
          Alcotest.test_case "negative seeds pick suite members" `Quick test_negative_seed;
          Alcotest.test_case "result line keys" `Quick test_result_line;
        ] );
    ]
