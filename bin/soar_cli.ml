(* Command-line driver for Soar/PSM-E: run the measured tasks, inspect
   networks, reproduce the paper's tables and figures. *)

open Cmdliner
open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine
open Psme_soar
open Psme_workloads

let workloads = [ Eight_puzzle.workload; Strips.workload; Cypress.workload ]

let find_workload name =
  let name = String.map (function '_' -> '-' | c -> c) name in
  match List.find_opt (fun w -> w.Workload.name = name) workloads with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown task %S (available: %s)" name
         (String.concat ", " (List.map (fun w -> w.Workload.name) workloads)))

(* --- shared args ------------------------------------------------------ *)

let task_arg =
  let doc = "Task to run: eight-puzzle, strips or cypress." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TASK" ~doc)

let engine_arg =
  let doc = "Match engine: serial, sim or parallel." in
  Arg.(value & opt string "serial" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let procs_arg =
  let doc = "Match processes for sim/parallel engines." in
  Arg.(value & opt int 8 & info [ "procs"; "p" ] ~docv:"N" ~doc)

let queues_arg =
  let doc = "Task-queue organization: single or multi." in
  Arg.(value & opt string "multi" & info [ "queues" ] ~docv:"Q" ~doc)

let learning_arg =
  let doc = "Enable chunking." in
  Arg.(value & opt bool true & info [ "learning" ] ~docv:"BOOL" ~doc)

let after_arg =
  let doc =
    "After-chunking run: learn on a first run, reload the chunks, run again."
  in
  Arg.(value & flag & info [ "after" ] ~doc)

let bilinear_arg =
  let doc = "Compile long productions into constrained bilinear networks." in
  Arg.(value & flag & info [ "bilinear" ] ~doc)

let async_arg =
  let doc = "Fire instantiations asynchronously, synchronizing only at decisions." in
  Arg.(value & flag & info [ "async" ] ~doc)

let trace_arg =
  let doc = "Log decisions, firings and chunks." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let parse_queues = function
  | "single" -> Ok Parallel.Single_queue
  | "multi" -> Ok Parallel.Multiple_queues
  | q -> Error (Printf.sprintf "unknown queue organization %S" q)

(* A process or interval count below 1 would leave an engine no match
   process to schedule, or divide by zero; reject it before any run. *)
let check_count flag n =
  if n >= 1 then Ok n else Error (Printf.sprintf "%s must be at least 1 (got %d)" flag n)

let parse_engine engine procs queues =
  match parse_queues queues, check_count "--procs" procs with
  | Error e, _ | _, Error e -> Error e
  | Ok q, Ok procs -> (
    match engine with
    | "serial" -> Ok Engine.Serial_mode
    | "sim" -> Ok (Engine.Sim_mode { Sim.procs; queues = q; collect_trace = false })
    | "parallel" -> Ok (Engine.Parallel_mode { Parallel.processes = procs; queues = q })
    | e -> Error (Printf.sprintf "unknown engine %S" e))

let setup_logs trace =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if trace then Logs.Debug else Logs.Warning))

(* --- run ---------------------------------------------------------------- *)

let run_cmd_impl task engine procs queues learning after bilinear async trace =
  setup_logs trace;
  match find_workload task, parse_engine engine procs queues with
  | Error e, _ | _, Error e -> prerr_endline e; 2
  | Ok w, Ok engine_mode ->
    let net_config =
      if bilinear then
        { Network.default_config with Network.bilinear = true; bilinear_min_ces = 15 }
      else Network.default_config
    in
    let config =
      {
        Agent.default_config with
        Agent.learning = learning && not after;
        engine_mode;
        net_config;
        trace;
        async_elaboration = async;
      }
    in
    let extra =
      if after then begin
        let learn_cfg = { config with Agent.learning = true; engine_mode = Engine.Serial_mode } in
        let first = w.Workload.make ~config:learn_cfg () in
        ignore (Agent.run first);
        Agent.learned_productions first
      end
      else []
    in
    let agent = w.Workload.make ~config ~extra () in
    let summary = Agent.run agent in
    let totals = Engine.totals (Agent.engine agent) in
    Format.printf "task            %s@." w.Workload.name;
    Format.printf "productions     %d (+%d chunks loaded)@."
      (List.length (Network.productions (Agent.network agent))
      - List.length summary.Agent.chunks - List.length extra)
      (List.length extra);
    Format.printf "decisions       %d@." summary.Agent.decisions;
    Format.printf "elab cycles     %d@." summary.Agent.elab_cycles;
    Format.printf "outcome         %s@."
      (if summary.Agent.halted then "halted (goal reached)"
       else if summary.Agent.stalled then "stalled"
       else "decision limit");
    Format.printf "chunks built    %d@." (List.length summary.Agent.chunks);
    Format.printf "tasks executed  %d@." totals.Cycle.tasks;
    Format.printf "uniproc time    %.2f s (simulated)@." (totals.Cycle.serial_us /. 1e6);
    (match engine_mode with
    | Engine.Sim_mode _ ->
      Format.printf "makespan        %.2f s on %d procs -> speedup %.2f@."
        (totals.Cycle.makespan_us /. 1e6) procs (Cycle.speedup totals)
    | Engine.Parallel_mode _ ->
      Format.printf "wall time       %.3f s on %d domains@."
        (float_of_int totals.Cycle.wall_ns /. 1e9) procs
    | Engine.Serial_mode ->
      Format.printf "wall time       %.3f s@." (float_of_int totals.Cycle.wall_ns /. 1e9));
    List.iter (fun line -> Format.printf "output          %s@." line) summary.Agent.output;
    0

let run_cmd =
  let doc = "Run one of the paper's tasks." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_cmd_impl $ task_arg $ engine_arg $ procs_arg $ queues_arg
      $ learning_arg $ after_arg $ bilinear_arg $ async_arg $ trace_arg)

(* --- tasks ---------------------------------------------------------------- *)

let tasks_cmd_impl () =
  Format.printf "%-14s %12s %12s %8s@." "task" "productions" "paper-prods" "chunks";
  List.iter
    (fun w ->
      Format.printf "%-14s %12d %12d %8d@." w.Workload.name
        (Workload.production_count w) w.Workload.paper_productions
        w.Workload.chunks_expected)
    workloads;
  0

let tasks_cmd =
  let doc = "List the available tasks." in
  Cmd.v (Cmd.info "tasks" ~doc) Term.(const tasks_cmd_impl $ const ())

(* --- network ----------------------------------------------------------------- *)

let network_cmd_impl task bilinear chunks_too =
  match find_workload task with
  | Error e -> prerr_endline e; 2
  | Ok w ->
    let net_config =
      if bilinear then
        { Network.default_config with Network.bilinear = true; bilinear_min_ces = 15 }
      else Network.default_config
    in
    let config =
      { Agent.default_config with Agent.net_config = net_config;
        Agent.learning = chunks_too }
    in
    let agent = w.Workload.make ~config () in
    let chunk_names =
      if chunks_too then
        List.map
          (fun ci -> ci.Agent.ci_prod.Production.name)
          (Agent.run agent).Agent.chunks
      else []
    in
    let net = Agent.network agent in
    let count pred =
      Hashtbl.fold (fun _ n acc -> if pred n.Network.kind then acc + 1 else acc)
        net.Network.beta 0
    in
    Format.printf "productions       %d@." (List.length (Network.productions net));
    Format.printf "alpha nodes       %d@." (Alpha.node_count net.Network.alpha);
    Format.printf "beta nodes        %d@." (Network.beta_node_count net);
    Format.printf "  entry           %d@." (count (function Network.Entry -> true | _ -> false));
    Format.printf "  join            %d@." (count (function Network.Join _ -> true | _ -> false));
    Format.printf "  negative        %d@." (count (function Network.Neg _ -> true | _ -> false));
    Format.printf "  ncc (+partner)  %d@."
      (count (function Network.Ncc _ | Network.Ncc_partner _ -> true | _ -> false));
    Format.printf "  binary join     %d@." (count (function Network.Bjoin _ -> true | _ -> false));
    Format.printf "  production      %d@." (count (function Network.Pnode _ -> true | _ -> false));
    let total_ces =
      List.fold_left
        (fun a pm -> a + Production.num_ces pm.Network.meta_production)
        0 (Network.productions net)
    in
    Format.printf "CEs compiled      %d (sharing saves %d two-input nodes)@." total_ces
      (max 0 (total_ces - Network.two_input_node_count net));
    let cr = Codesize.compiled_report net in
    Format.printf "node programs     %d compiled (%d closures, %d heap words)@."
      cr.Codesize.cp_programs cr.Codesize.cp_closures cr.Codesize.cp_words;
    if chunks_too then begin
      (* Growth as learning adds productions: each chunk's compiled
         closures, spliced into the jumptable at run time (§5.1). *)
      Format.printf "@.%-40s %9s %9s %9s@." "production" "programs" "closures" "words";
      List.iter
        (fun pm ->
          let c = Codesize.compiled_of_production net pm in
          let name = pm.Network.meta_production.Production.name in
          let chunk =
            if List.exists (Sym.equal name) chunk_names then " [chunk]" else ""
          in
          Format.printf "%-40s %9d %9d %9d@."
            (Sym.name name ^ chunk)
            c.Codesize.cp_programs c.Codesize.cp_closures c.Codesize.cp_words)
        (Network.productions net)
    end;
    0

let network_cmd =
  let doc = "Show the compiled Rete network of a task." in
  let chunks =
    Arg.(
      value & flag
      & info [ "with-chunks" ]
          ~doc:
            "Run the task with learning first and include the chunks' compiled \
             node programs (code-size growth under learning).")
  in
  Cmd.v (Cmd.info "network" ~doc)
    Term.(const network_cmd_impl $ task_arg $ bilinear_arg $ chunks)

(* --- report --------------------------------------------------------------------- *)

let report_cmd_impl () =
  print_string (Psme_harness.Experiments.markdown_report ());
  0

let report_cmd =
  let doc =
    "Reproduce every table and figure of the paper's evaluation and print them \
     as markdown (the EXPERIMENTS.md body)."
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const report_cmd_impl $ const ())

(* --- dump ------------------------------------------------------------------------ *)

let dump_cmd_impl task chunks_too =
  match find_workload task with
  | Error e -> prerr_endline e; 2
  | Ok w ->
    let agent =
      if chunks_too then begin
        let a = w.Workload.make () in
        ignore (Agent.run a);
        a
      end
      else
        w.Workload.make
          ~config:{ Agent.default_config with Agent.learning = false }
          ()
    in
    let net = Agent.network agent in
    List.iter
      (fun pm ->
        Format.printf "%a@.@." (Production.pp (Agent.schema agent))
          pm.Network.meta_production)
      (Network.productions net);
    0

let dump_cmd =
  let doc = "Print a task's full production set in OPS5 syntax." in
  let chunks =
    Arg.(value & flag & info [ "with-chunks" ] ~doc:"Run the task first and include its learned chunks.")
  in
  Cmd.v (Cmd.info "dump" ~doc) Term.(const dump_cmd_impl $ task_arg $ chunks)

(* --- diagnose -------------------------------------------------------------------- *)

let diagnose_cmd_impl task procs apply =
  match find_workload task, check_count "--procs" procs with
  | Error e, _ | _, Error e -> prerr_endline e; 2
  | Ok w, Ok procs ->
    let d = Psme_harness.Diagnose.diagnose ~procs w in
    Psme_harness.Diagnose.pp Format.std_formatter d;
    if apply then begin
      let t = Psme_harness.Diagnose.apply_recommendations w d in
      match t.Psme_harness.Diagnose.t_applied with
      | [] -> Format.printf "nothing to apply.@."
      | remedies ->
        Format.printf "applied: %s@." (String.concat ", " remedies);
        Format.printf "speedup: %.2f -> %.2f@." t.Psme_harness.Diagnose.t_before
          t.Psme_harness.Diagnose.t_after
    end;
    0

let diagnose_cmd =
  let doc =
    "Diagnose the causes of low match speedups (small cycles, long chains) and \
     optionally apply the recommended remedies (paper section 7)."
  in
  let apply =
    Arg.(value & flag & info [ "apply" ] ~doc:"Apply the recommendations and re-measure.")
  in
  Cmd.v (Cmd.info "diagnose" ~doc)
    Term.(const diagnose_cmd_impl $ task_arg $ procs_arg $ apply)

(* --- profile --------------------------------------------------------------------- *)

let top_arg =
  let doc = "Rows to show in each profile table." in
  Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Emit machine-readable JSON (per-cycle stats and the metrics registry) \
     instead of tables."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let traced_agent w ~engine_mode ~learning =
  let tracer = Psme_obs.Trace.create () in
  let config =
    { Agent.default_config with Agent.learning; engine_mode; tracer = Some tracer }
  in
  let agent = w.Workload.make ~config () in
  ignore (Agent.run agent);
  (agent, tracer)

let profile_cmd_impl task procs queues learning top json =
  setup_logs false;
  match find_workload task, parse_engine "sim" procs queues with
  | Error e, _ | _, Error e -> prerr_endline e; 2
  | Ok w, Ok engine_mode ->
    let agent, tracer = traced_agent w ~engine_mode ~learning in
    let engine = Agent.engine agent in
    let net = Agent.network agent in
    let events = Psme_obs.Trace.events tracer in
    let prof = Psme_harness.Observe.profile net events in
    let totals = Engine.totals engine in
    let cost = (Agent.config agent).Agent.cost in
    let alpha_us =
      float_of_int totals.Cycle.alpha_activations *. cost.Cost.alpha_act_us
    in
    if json then begin
      let cycles = Engine.history engine in
      Format.printf "{\"task\": \"%s\", \"cycles\": [%s], \"metrics\": %s}@."
        w.Workload.name
        (String.concat ", " (List.map Cycle.to_json cycles))
        (Psme_obs.Metrics.to_json (Psme_harness.Observe.metrics engine));
      0
    end
    else begin
      if Psme_obs.Trace.dropped tracer > 0 then
        Format.printf
          "warning: ring buffer wrapped, %d events dropped — totals are partial@."
          (Psme_obs.Trace.dropped tracer);
      Format.printf "task %s on %d simulated processes: %d tasks, %d cycles@.@."
        w.Workload.name procs totals.Cycle.tasks
        (List.length (Engine.history engine));
      Psme_obs.Profile.pp_nodes ~top Format.std_formatter prof;
      Format.printf "@.";
      Psme_obs.Profile.pp_prods ~top Format.std_formatter prof;
      Format.printf "  %-40s %33.0f@." "(alpha pass)" alpha_us;
      Format.printf "  %-40s %33.0f  (engine serial %.0f us)@.@." "total"
        (prof.Psme_obs.Profile.total_us +. alpha_us)
        totals.Cycle.serial_us;
      let reports = Psme_obs.Critical_path.per_cycle events in
      Psme_obs.Critical_path.pp ~top:5 Format.std_formatter reports;
      (match Psme_obs.Critical_path.longest reports with
      | Some r ->
        let owners =
          Psme_harness.Observe.node_prods net r.Psme_obs.Critical_path.cp_head_node
        in
        Format.printf "worst chain ends at %s%s@.@."
          (Psme_harness.Observe.node_name net r.Psme_obs.Critical_path.cp_head_node)
          (match owners with [] -> "" | o :: _ -> Printf.sprintf " (production %s)" o)
      | None -> ());
      Format.printf "metrics registry:@.";
      Psme_obs.Metrics.pp Format.std_formatter (Psme_harness.Observe.metrics engine);
      0
    end

let profile_cmd =
  let doc =
    "Run a task on the traced simulator and print the per-node and \
     per-production match profile, the critical-path report and the metrics \
     registry."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const profile_cmd_impl $ task_arg $ procs_arg $ queues_arg $ learning_arg
      $ top_arg $ json_arg)

(* --- attribute ------------------------------------------------------------------- *)

let attribute_workload_arg =
  let doc = "Workload to attribute: eight-puzzle, strips or cypress." in
  Arg.(value & opt string "eight-puzzle" & info [ "workload" ] ~docv:"TASK" ~doc)

let attribute_cmd_impl task procs queues json per_cycle trace_out =
  setup_logs false;
  match (find_workload task, parse_engine "sim" procs queues) with
  | Error e, _ | _, Error e -> prerr_endline e; 2
  | Ok w, Ok engine_mode ->
    let agent, tracer = traced_agent w ~engine_mode ~learning:false in
    let cost = (Agent.config agent).Agent.cost in
    let queue_op_us = cost.Cost.queue_op_us in
    let events = Psme_obs.Trace.events tracer in
    let ledgers = Psme_obs.Attribution.per_cycle ~procs ~queue_op_us events in
    let trace_status =
      match trace_out with
      | None -> 0
      | Some path -> (
        (* the Chrome trace with the attribution counter track riding on
           the per-worker lanes *)
        let buf = Buffer.create (256 * Array.length events) in
        Psme_harness.Observe.chrome_trace ~ledgers (Agent.network agent) buf events;
        match open_out path with
        | exception Sys_error msg ->
          Format.eprintf "cannot write trace: %s@." msg;
          2
        | oc ->
          Buffer.output_buffer oc buf;
          close_out oc;
          if not json then Format.printf "wrote %s@." path;
          0)
    in
    let violations =
      List.filter_map
        (fun l ->
          match Psme_obs.Attribution.check l with
          | Ok () -> None
          | Error msg -> Some msg)
        ledgers
    in
    if json then
      Format.printf "%s@."
        (Psme_obs.Json.to_string
           (Psme_obs.Attribution.to_json ~per_cycle ~task:w.Workload.name
              ~queue_op_us ledgers))
    else begin
      Format.printf "task %s on %d simulated processes (queue op %.0f us)@.@."
        w.Workload.name procs queue_op_us;
      Psme_obs.Attribution.pp ~top:(if per_cycle then max_int else 8)
        Format.std_formatter ledgers;
      if Psme_obs.Trace.dropped tracer > 0 then
        Format.printf
          "warning: ring buffer wrapped, %d events dropped — ledgers are partial@."
          (Psme_obs.Trace.dropped tracer)
    end;
    (match violations with
    | [] -> trace_status
    | msgs ->
      List.iter (fun m -> Format.eprintf "attribution invariant violated: %s@." m) msgs;
      1)

let attribute_cmd =
  let doc =
    "Attribute a task's speedup loss: run it on the traced simulator and \
     decompose each cycle's gap to ideal P-times-makespan processor-time into \
     critical-path residual, load imbalance, queue/steal overhead and lock \
     contention (an additive per-cycle ledger; exit 1 if the components fail \
     to sum to the gap)."
  in
  let per_cycle =
    Arg.(
      value & flag
      & info [ "per-cycle" ]
          ~doc:
            "Include every cycle's ledger (JSON: the cycles array with \
             per-worker timelines; table: all cycles instead of the top 8).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit JSON (schema psme-attribution/1) instead of a table.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"PATH"
          ~doc:
            "Also write the Chrome trace-event JSON with the attribution \
             counter track to $(docv).")
  in
  Cmd.v (Cmd.info "attribute" ~doc)
    Term.(
      const attribute_cmd_impl $ attribute_workload_arg $ procs_arg $ queues_arg
      $ json $ per_cycle $ trace_out)

(* --- trace ----------------------------------------------------------------------- *)

let trace_out_arg =
  let doc = "Write the Chrome trace-event JSON to $(docv)." in
  Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"PATH" ~doc)

let trace_engine_arg =
  let doc = "Match engine to trace: serial, sim or parallel." in
  Arg.(value & opt string "sim" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let trace_cmd_impl task engine procs queues learning async out =
  setup_logs false;
  match find_workload task, parse_engine engine procs queues with
  | Error e, _ | _, Error e -> prerr_endline e; 2
  | Ok w, Ok engine_mode -> (
    (* open the output before the (possibly long) run, so a bad path
       fails in milliseconds instead of after the whole simulation *)
    match open_out out with
    | exception Sys_error msg ->
      prerr_endline ("cannot write trace: " ^ msg);
      2
    | oc ->
    let tracer = Psme_obs.Trace.create () in
    let config =
      {
        Agent.default_config with
        Agent.learning;
        engine_mode;
        async_elaboration = async;
        tracer = Some tracer;
      }
    in
    let agent = w.Workload.make ~config () in
    ignore (Agent.run agent);
    let net = Agent.network agent in
    let events = Psme_obs.Trace.events tracer in
    let buf = Buffer.create (256 * Array.length events) in
    Psme_harness.Observe.chrome_trace net buf events;
    Buffer.output_buffer oc buf;
    close_out oc;
    Format.printf "wrote %s: %d events (%d dropped), %d match-process lanes@."
      out (Array.length events)
      (Psme_obs.Trace.dropped tracer)
      (List.length (Psme_obs.Chrome_trace.lanes events));
    Format.printf "open it at ui.perfetto.dev or chrome://tracing@.";
    0)

let trace_cmd =
  let doc =
    "Run a task with the structured event tracer and export the timeline as \
     Chrome trace-event JSON (one lane per virtual match process)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace_cmd_impl $ task_arg $ trace_engine_arg $ procs_arg $ queues_arg
      $ learning_arg $ async_arg $ trace_out_arg)

(* --- telemetry ------------------------------------------------------------------- *)

let telemetry_cmd_impl task engine procs queues learning async watch every json =
  setup_logs false;
  match find_workload task, parse_engine engine procs queues, check_count "--every" every with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> prerr_endline e; 2
  | Ok w, Ok engine_mode, Ok every ->
    let tm = Psme_obs.Telemetry.global in
    Psme_obs.Telemetry.reset tm;
    let config =
      {
        Agent.default_config with
        Agent.learning;
        engine_mode;
        async_elaboration = async;
      }
    in
    let agent = w.Workload.make ~config () in
    if watch then begin
      (* rolling deltas: one line per [every] decisions *)
      let last = ref (Psme_obs.Telemetry.snapshot_kv tm) in
      Agent.set_monitor agent (fun decisions ->
          if decisions mod every = 0 then begin
            let now = Psme_obs.Telemetry.snapshot_kv tm in
            Format.printf "d%-5d %s@." decisions
              (Psme_obs.Telemetry.delta_line ~before:!last ~after:now);
            last := now
          end)
    end;
    ignore (Agent.run agent);
    if json then
      Format.printf "%s@."
        (Psme_obs.Json.to_string (Psme_obs.Telemetry.to_json tm))
    else begin
      if watch then Format.printf "@.";
      Psme_obs.Telemetry.pp Format.std_formatter tm
    end;
    0

let telemetry_cmd =
  let doc =
    "Run a task with the always-on telemetry layer and print its snapshot: \
     per-phase allocation/GC accounting (match, conflict-resolution, act, \
     chunk-splice), cycle/task/queue-dwell latency histograms with \
     p50/p90/p99/max, and queue/lock contention counters."
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:"Print a rolling one-line delta during the run (per decision).")
  in
  let every =
    Arg.(
      value & opt int 1
      & info [ "every" ] ~docv:"N" ~doc:"With $(b,--watch): print every $(docv) decisions.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the snapshot as JSON (schema psme-telemetry/1) instead of a table.")
  in
  Cmd.v (Cmd.info "telemetry" ~doc)
    Term.(
      const telemetry_cmd_impl $ task_arg $ engine_arg $ procs_arg $ queues_arg
      $ learning_arg $ async_arg $ watch $ every $ json)

(* --- parse ----------------------------------------------------------------------- *)

let parse_cmd_impl file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  (try
     let forms = Parser.parse_program schema src in
     List.iter
       (function
         | Parser.Literalize (cls, attrs) ->
           Format.printf "literalize %a (%d attributes)@." Sym.pp cls (List.length attrs)
         | Parser.Prod p ->
           Format.printf "production %a: %d CEs, %d actions@." Sym.pp p.Production.name
             (Production.num_ces p)
             (List.length p.Production.rhs))
       forms;
     exit 0
   with
  | Parser.Parse_error (msg, { line }) ->
    Format.eprintf "parse error at line %d: %s@." line msg;
    exit 2
  | Lexer.Lex_error (msg, { line }) ->
    Format.eprintf "lex error at line %d: %s@." line msg;
    exit 2)

let parse_cmd =
  let doc = "Parse and validate a production source file." in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "parse" ~doc) Term.(const parse_cmd_impl $ file)

(* --- check ----------------------------------------------------------------------- *)

let check_workload_arg =
  let doc = "Workload to verify: eight-puzzle, strips, cypress or all." in
  Arg.(value & opt string "all" & info [ "workload" ] ~docv:"TASK" ~doc)

let print_report name report =
  if report.Psme_check.Finding.findings = [] then
    Format.printf "%s: clean (%d checked)@." name report.Psme_check.Finding.checked
  else Format.printf "%s:@.%a@." name Psme_check.Finding.pp report

let check_one w =
  (* A full learning run exercises §5.1 chunk addition and the §5.2
     state update before the verifier looks at the result. *)
  let config =
    { Agent.default_config with Agent.learning = true; engine_mode = Engine.Serial_mode }
  in
  let agent = w.Workload.make ~config () in
  ignore (Agent.run agent);
  (* a (halt) exits mid-phase; settle the match before diffing it *)
  Agent.flush_match agent;
  let net = Agent.network agent in
  let wmes = Wm.to_list (Agent.wm agent) in
  Psme_check.Verify.full net wmes

let check_cmd_impl task =
  setup_logs false;
  let targets =
    if task = "all" then Ok workloads
    else match find_workload task with Ok w -> Ok [ w ] | Error e -> Error e
  in
  match targets with
  | Error e -> prerr_endline e; 2
  | Ok ws ->
    let report =
      List.fold_left
        (fun acc w ->
          let r = check_one w in
          print_report w.Workload.name r;
          Psme_check.Finding.merge acc r)
        Psme_check.Finding.empty ws
    in
    Psme_check.Finding.exit_code report

let check_cmd =
  let doc =
    "Verify the compiled (and chunk-extended) Rete network of a workload: \
     structural invariants (wiring, monotone node ids, reachability) and \
     match-state consistency against a from-scratch serial rebuild."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const check_cmd_impl $ check_workload_arg)

(* --- analyze --------------------------------------------------------------------- *)

let analyze_files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE")

let analyze_workload_arg =
  let doc =
    "Analyze a generated workload's production set instead of source files: \
     eight-puzzle, strips, cypress or all."
  in
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"TASK" ~doc)

let strict_arg =
  let doc = "Fail (exit 1) on warnings too, not just errors." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let analyze_json_arg =
  let doc = "Emit the report as JSON on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let analyze_reorder_arg =
  let doc =
    "Build the analyzed network with join reordering \
     (Network.config.reorder_joins) so the report reflects the reordered \
     chains."
  in
  Arg.(value & flag & info [ "reorder" ] ~doc)

let print_analyze name report json =
  if json then Format.printf "%s@." (Psme_check.Finding.to_json report)
  else print_report name report

let analyze_source_file ~reorder ~json file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  let prods = Parser.productions schema src in
  (* the network rules need a built network; a build failure downgrades
     to source-only analysis rather than masking the other rules *)
  let net =
    let config =
      { Network.default_config with Network.reorder_joins = reorder }
    in
    let net = Network.create ~config schema in
    match List.iter (fun p -> ignore (Build.add_production net p)) prods with
    | () -> Some net
    | exception Build.Build_error msg ->
      Format.eprintf "%s: network build failed (%s); network rules skipped@."
        file msg;
      None
  in
  let report = Psme_check.Analyze.source ?net schema ~src prods in
  print_analyze file report json;
  report

let analyze_workload ~json w =
  let config =
    { Agent.default_config with Agent.engine_mode = Engine.Serial_mode }
  in
  let agent = w.Workload.make ~config () in
  let net = Agent.network agent in
  let prods =
    List.map
      (fun pm -> pm.Network.meta_production)
      (Network.productions net)
  in
  let report =
    Psme_check.Finding.merge
      (Psme_check.Analyze.productions (Agent.schema agent) prods)
      (Psme_check.Analyze.network net)
  in
  print_analyze w.Workload.name report json;
  report

let analyze_cmd_impl files task strict json reorder =
  setup_logs false;
  match files, task with
  | [], None ->
    prerr_endline "nothing to analyze: give source files or --workload";
    2
  | _ :: _, Some _ ->
    prerr_endline "give either source files or --workload, not both";
    2
  | files, None ->
    (* the first file that fails to parse ends the run, named *)
    let rec go acc = function
      | [] -> Psme_check.Finding.exit_code ~strict acc
      | file :: rest -> (
        match analyze_source_file ~reorder ~json file with
        | report -> go (Psme_check.Finding.merge acc report) rest
        | exception Parser.Parse_error (msg, { Lexer.line }) ->
          Format.eprintf "%s: parse error at line %d: %s@." file line msg;
          2
        | exception Lexer.Lex_error (msg, { Lexer.line }) ->
          Format.eprintf "%s: lex error at line %d: %s@." file line msg;
          2)
    in
    go Psme_check.Finding.empty files
  | [], Some task -> (
    let targets =
      if task = "all" then Ok workloads
      else match find_workload task with Ok w -> Ok [ w ] | Error e -> Error e
    in
    match targets with
    | Error e ->
      prerr_endline e;
      2
    | Ok ws ->
      let report =
        List.fold_left
          (fun acc w -> Psme_check.Finding.merge acc (analyze_workload ~json w))
          Psme_check.Finding.empty ws
      in
      Psme_check.Finding.exit_code ~strict report)

let analyze_cmd =
  let doc =
    "Statically analyze productions and their compiled Rete network: \
     undeclared classes and fields, unsatisfiable conditions, unused \
     variables and duplicate conditions, dead or vacuous nodes, shadowed and \
     subsumed production pairs, cross-product joins and the static join-cost \
     model's reordering suggestions. Exit 0 when clean, 1 on findings that matter \
     (errors, or any finding under --strict), 2 on parse failure. Suppress a \
     finding with a '; analyze: allow <rule> [<subject>]' comment."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const analyze_cmd_impl $ analyze_files_arg $ analyze_workload_arg
      $ strict_arg $ analyze_json_arg $ analyze_reorder_arg)

(* --- races ----------------------------------------------------------------------- *)

let races_workload_arg =
  let doc = "Workload to run under the race detector." in
  Arg.(value & opt string "eight-puzzle" & info [ "workload" ] ~docv:"TASK" ~doc)

let races_engine_arg =
  let doc = "Engine to race-check: sim or parallel." in
  Arg.(value & opt string "sim" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let races_cmd_impl task engine procs queues =
  setup_logs false;
  match (find_workload task, parse_engine engine procs queues) with
  | Error e, _ | _, Error e -> prerr_endline e; 2
  | _, Ok Engine.Serial_mode ->
    prerr_endline "the serial engine has no concurrency to race-check; use sim or parallel";
    2
  | Ok w, Ok engine_mode ->
    let tracer = Psme_obs.Trace.create ~capacity:(1 lsl 21) () in
    let config =
      {
        Agent.default_config with
        Agent.learning = true;
        engine_mode;
        tracer = Some tracer;
      }
    in
    let agent = w.Workload.make ~config () in
    ignore (Agent.run agent);
    let events = Psme_obs.Trace.events tracer in
    if Psme_obs.Trace.dropped tracer > 0 then
      Format.printf
        "warning: ring buffer wrapped, %d events dropped — coverage is partial@."
        (Psme_obs.Trace.dropped tracer);
    let r = Psme_check.Races.analyze events in
    Format.printf "%s on %s: %a@." w.Workload.name engine Psme_check.Races.pp r;
    let report = Psme_check.Races.to_findings r in
    if report.Psme_check.Finding.findings <> [] then
      Format.printf "%a@." Psme_check.Finding.pp report;
    Psme_check.Finding.exit_code report

let races_cmd =
  let doc =
    "Run a workload on a concurrent engine with memory-access tracing and \
     check the trace for data races: accesses to one hash line unordered by \
     happens-before and not both holding the line lock."
  in
  Cmd.v (Cmd.info "races" ~doc)
    Term.(
      const races_cmd_impl $ races_workload_arg $ races_engine_arg $ procs_arg
      $ queues_arg)

let main =
  let doc = "Soar/PSM-E: a learning production system on a parallel matcher" in
  Cmd.group (Cmd.info "soar_cli" ~doc)
    [
      run_cmd; tasks_cmd; network_cmd; report_cmd; diagnose_cmd; profile_cmd;
      attribute_cmd; trace_cmd; dump_cmd; parse_cmd; check_cmd; analyze_cmd;
      races_cmd; telemetry_cmd;
    ]

let () = exit (Cmd.eval' main)
