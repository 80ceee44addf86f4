(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (the rows/series printed match the paper's): Tables 5-1, 5-2, 6-1 and
   Figures 6-1 through 6-12. Part 2 runs Bechamel micro-benchmarks of
   the matcher's primitives and of run-time production addition (the
   §5.1 mechanism), including the sharing ablation. The match-kernel,
   memory, wide-alpha and sharing-on addition fixtures are the
   repository benchmark's own ([Perfbench_suite.Micro]), so one set of
   fixtures serves both programs.

   Modes (see README "Benchmark JSON"):

     dune exec bench/main.exe                  # full: tables + micro, human-readable
     dune exec bench/main.exe -- --json F      # also write machine-readable results to F
     dune exec bench/main.exe -- --quick       # CI mode: short quotas, micro + small
                                               # speedup probe only, no paper tables

   The micro fixtures are deliberately *populated*: the match kernel's
   cost is per-probe complexity against loaded memories (hash-line
   collision chains), not the empty-table fast path, so the fixtures
   pre-load working memory / memory lines before staging the measured
   operation. The JSON from each perf PR is committed as BENCH_<PR>.json
   at the repo root (before/after pairs), forming the perf trajectory. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Bechamel
open Toolkit

(* --- micro-benchmark fixtures ------------------------------------------ *)

let fixture_schema () =
  let schema = Schema.create () in
  ignore
    (Parser.parse_program schema
       {|
(literalize block name color on state)
(literalize hand state name)
(literalize place name table)
|});
  schema

let fixture_net ?(lines = 512) schema =
  let prods =
    Parser.productions schema
      {|
(p g1 (block ^name <x> ^color blue) -(block ^on <x>) (hand ^state free) --> (write a))
(p g2 (block ^name <x> ^color red) (place ^name <x>) --> (write b))
(p g3 (block ^name <x> ^state <s>) (block ^name <> <x> ^state <s>) --> (write c))
|}
  in
  let net =
    Network.create ~config:{ Network.default_config with Network.lines } schema
  in
  ignore (Build.add_all net prods);
  net

let block_wme ?on ~name ~color ~state ~timetag () =
  let fields = Array.make 4 Value.nil in
  fields.(0) <- Value.sym name;
  fields.(1) <- Value.sym color;
  (match on with None -> () | Some o -> fields.(2) <- Value.sym o);
  fields.(3) <- Value.sym state;
  Wme.make ~cls:(Sym.intern "block") ~fields ~timetag

(* A net under sustained load: 16 hash lines (so distinct-key entries
   collide into shared lines, the regime §6.1's line lock exists for)
   and a working memory of blocks already resident in the entry and
   two-input memories. The residents form an ^on cycle (p0 sits on p191,
   p_i on p_{i-1}) so every join key — name, on, state — is distinct:
   the populated memories hold many entries per *line* (~256) but few
   per *bucket*, which is the regime the secondary index targets (an
   all-nil ^on column would funnel every entry into one bucket and
   measure nothing but chain walking). The measured operation is the
   paper's unit of match work: one wme add and its retraction. *)
let bench_wme_churn =
  Test.make ~name:"match: add+delete one wme (serial)"
    (let schema = fixture_schema () in
     let net = fixture_net ~lines:16 schema in
     let resident = 1024 in
     let () =
       List.iter
         (fun w -> ignore (Psme_engine.Serial.run_changes net [ (Task.Add, w) ]))
         (List.init resident (fun i ->
              block_wme
                ~on:(Printf.sprintf "p%d" ((i + resident - 1) mod resident))
                ~name:(Printf.sprintf "p%d" i) ~color:"blue"
                ~state:(Printf.sprintf "s%d" i) ~timetag:(i + 1) ()))
     in
     let () =
       let fields = Array.make 3 Value.nil in
       fields.(0) <- Value.sym "free";
       let hand = Wme.make ~cls:(Sym.intern "hand") ~fields ~timetag:(resident + 1) in
       ignore (Psme_engine.Serial.run_changes net [ (Task.Add, hand) ])
     in
     let tag = ref (resident + 1) in
     Staged.stage (fun () ->
         incr tag;
         let w = block_wme ~name:"bench" ~color:"blue" ~state:"sbench" ~timetag:!tag () in
         ignore (Psme_engine.Serial.run_changes net [ (Task.Add, w) ]);
         ignore (Psme_engine.Serial.run_changes net [ (Task.Delete, w) ])))

(* The sharing-off twin of [Micro.add_production]: each iteration adds
   one production to a fresh one-production network built with node
   sharing off, so nothing is reused (the Table 5-2 ablation). *)
let bench_add_production_unshared =
  Test.make ~name:"compile: add production, sharing off"
    (let counter = ref 0 in
     let schema = fixture_schema () in
     Staged.stage (fun () ->
         let net =
           Network.create ~config:{ Network.default_config with Network.share = false }
             schema
         in
         ignore
           (Build.add_all net
              (Parser.productions schema
                 {|(p base (block ^name <x> ^color blue) (hand ^state free) --> (write a))|}));
         incr counter;
         ignore
           (Build.add_production net
              (Parser.parse_production schema
                 (Printf.sprintf
                    {|(p added-%d (block ^name <x> ^color blue) (place ^name <x> ^table free) --> (write x))|}
                    !counter)))))

let bench_token_ops =
  Test.make ~name:"token: extend+hash (8 slots)"
    (let cls = Sym.intern "block" in
     let wmes = Array.init 8 (fun i -> Wme.make ~cls ~fields:[||] ~timetag:i) in
     Staged.stage (fun () ->
         let t = ref (Token.singleton wmes.(0)) in
         for i = 1 to 7 do
           t := Token.extend !t wmes.(i)
         done;
         ignore (Token.hash !t)))

(* One join level at depth [d]: the cost of Token.extend must not grow
   with the chain already matched (the paper's long-chain productions,
   §6.2, pay this on every level). *)
let bench_token_depth d =
  Test.make ~name:(Printf.sprintf "token: extend+hash @depth=%d" d)
    (let cls = Sym.intern "block" in
     let base =
       let t = ref (Token.singleton (Wme.make ~cls ~fields:[||] ~timetag:0)) in
       for i = 1 to d - 1 do
         t := Token.extend !t (Wme.make ~cls ~fields:[||] ~timetag:i)
       done;
       !t
     in
     let w = Wme.make ~cls ~fields:[||] ~timetag:d in
     Staged.stage (fun () -> ignore (Token.hash (Token.extend base w))))

let bench_alpha =
  Test.make ~name:"alpha: constant-test pass for one wme"
    (let schema = fixture_schema () in
     let net = fixture_net schema in
     let cls = Sym.intern "block" in
     let fields = Array.make 4 Value.nil in
     let () = fields.(1) <- Value.sym "blue" in
     let w = Wme.make ~cls ~fields ~timetag:1 in
     Staged.stage (fun () -> ignore (Runtime.seed_wme_change net Task.Add w)))

let bench_trace_emit =
  (* the per-event cost tracing adds to an engine's hot loop *)
  Test.make ~name:"obs: tracer emit (ring store)"
    (let tr = Psme_obs.Trace.create ~capacity:(1 lsl 16) () in
     let t = ref 0. in
     Staged.stage (fun () ->
         t := !t +. 1.;
         Psme_obs.Trace.emit tr Psme_obs.Trace.Task_end ~t_us:!t ~proc:1 ~node:7
           ~task:3 ~parent:1 ~dur_us:400. ~scanned:5 ~emitted:2 ()))

let bench_metrics_incr =
  Test.make ~name:"obs: metrics counter incr (atomic)"
    (let c = Psme_obs.Metrics.counter Psme_obs.Metrics.global "bench.counter" in
     Staged.stage (fun () -> Psme_obs.Metrics.incr c))

(* Row names are stable identifiers of the BENCH_*.json trajectory; the
   kernel rows keep their "(compiled)" suffix so gates against older
   baselines compare the same rows. The kernels funnel 128 residents
   into ONE hash bucket with a 4-test chain (1 eq + 3 residuals), so the
   measured cost is the per-candidate test loop of the node programs. *)
let micro_benchmarks () =
  let module M = Perfbench_suite.Micro in
  [
    bench_wme_churn;
    M.add_production "compile: add production, sharing on";
    bench_add_production_unshared;
    bench_token_ops;
    bench_token_depth 4;
    bench_token_depth 64;
    bench_token_depth 256;
    M.memory_ops "memory: insert+probe+remove under line lock";
    bench_alpha;
    M.alpha_seed "alpha: 64-way sibling constant dispatch";
    M.left_scan ~neg:false ~miss:false "kernel: join-left 4-test scan (compiled)";
    M.left_scan ~neg:true ~miss:false "kernel: neg-left 4-test scan (compiled)";
    M.left_scan ~neg:false ~miss:true "kernel: join-left 4-test miss scan (compiled)";
    M.right_scan "kernel: join-right 4-test scan (compiled)";
    bench_trace_emit;
    bench_metrics_incr;
  ]

let run_micro ~quota =
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.fold
        (fun name result acc ->
          let est =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Some est
            | _ -> None
          in
          (* strip Bechamel's "g/" group prefix *)
          let name =
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          (name, est) :: acc)
        ols [])
    (micro_benchmarks ())

(* --- sim-engine speedup curves ------------------------------------------ *)

let speedup_series ~procs_axis (w : Psme_workloads.Workload.t) =
  let open Psme_soar in
  List.map
    (fun procs ->
      let config =
        {
          Agent.default_config with
          Agent.learning = false;
          engine_mode =
            Psme_engine.Engine.Sim_mode
              {
                Psme_engine.Sim.procs;
                queues = Psme_engine.Parallel.Multiple_queues;
                collect_trace = false;
              };
        }
      in
      let agent = w.Psme_workloads.Workload.make ~config () in
      ignore (Agent.run agent);
      let totals = Psme_engine.Engine.totals (Agent.engine agent) in
      (procs, Psme_engine.Cycle.speedup totals))
    procs_axis

(* --- speedup-loss attribution ------------------------------------------- *)

(* The per-cycle bottleneck ledger on the paper's tasks at the §6.2
   processor counts, one summary row per (workload, procs) point. The
   perf gate only reads the e2e/micro/speedup/telemetry sections, so
   this rides along for dashboards and the CI artifact without gating. *)
let attribution_series ~procs_axis workloads =
  let open Psme_soar in
  List.concat_map
    (fun (w : Psme_workloads.Workload.t) ->
      List.map
        (fun procs ->
          let tracer = Psme_obs.Trace.create ~capacity:(1 lsl 21) () in
          let config =
            {
              Agent.default_config with
              Agent.learning = false;
              tracer = Some tracer;
              engine_mode =
                Psme_engine.Engine.Sim_mode
                  {
                    Psme_engine.Sim.procs;
                    queues = Psme_engine.Parallel.Multiple_queues;
                    collect_trace = false;
                  };
            }
          in
          let agent = w.Psme_workloads.Workload.make ~config () in
          ignore (Agent.run agent);
          let cost = (Agent.config agent).Agent.cost in
          let ledgers =
            Psme_obs.Attribution.per_cycle ~procs
              ~queue_op_us:cost.Psme_engine.Cost.queue_op_us
              (Psme_obs.Trace.events tracer)
          in
          ( w.Psme_workloads.Workload.name,
            procs,
            Psme_obs.Attribution.totals ledgers,
            Psme_obs.Attribution.worst ledgers ))
        procs_axis)
    workloads

(* --- end-to-end cycles/sec ------------------------------------------------ *)

type e2e_result = {
  e2e_workload : string;
  e2e_variant : string;  (* "compiled": the row name older baselines use *)
  e2e_decisions : int;
  e2e_cycles : int;      (* elaboration cycles *)
  e2e_wall_ns : int;
  e2e_cps : float;       (* elaboration cycles per wall second *)
}

(* Full learning run on the real serial engine: chunks built mid-run are
   compiled and spliced into the jumptable, so the run measures the
   §5.1 story end to end. Best of [reps] wall times. *)
let e2e_run ?(reps = 3) (w : Psme_workloads.Workload.t) =
  let open Psme_soar in
  let config =
    {
      Agent.default_config with
      Agent.learning = true;
      engine_mode = Psme_engine.Engine.Serial_mode;
    }
  in
  let best = ref max_int in
  let decisions = ref 0 in
  let cycles = ref 0 in
  for _ = 1 to reps do
    let agent = w.Psme_workloads.Workload.make ~config () in
    let t0 = Clock.now_ns () in
    let summary = Agent.run agent in
    let dt = Clock.now_ns () - t0 in
    if dt < !best then best := dt;
    decisions := summary.Agent.decisions;
    cycles := summary.Agent.elab_cycles
  done;
  {
    e2e_workload = w.Psme_workloads.Workload.name;
    e2e_variant = "compiled";
    e2e_decisions = !decisions;
    e2e_cycles = !cycles;
    e2e_wall_ns = !best;
    e2e_cps = float_of_int !cycles /. (float_of_int !best /. 1e9);
  }

let e2e_series ~reps workloads = List.map (e2e_run ~reps) workloads

(* --- machine-readable output -------------------------------------------- *)

(* Provenance: bench numbers are only comparable within one machine (and
   really within one run — the container is multi-tenant), so each
   document records where it came from. *)
let machine_doc () =
  let open Psme_obs.Json in
  let proc_line path =
    match open_in path with
    | exception Sys_error _ -> Null
    | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      if line = "" then Null else Str line
  in
  Obj
    [
      ( "os",
        Str
          (if Sys.file_exists "/proc/version" then "linux"
           else String.lowercase_ascii Sys.os_type) );
      ("kernel", proc_line "/proc/sys/kernel/osrelease");
      ("arch", proc_line "/proc/sys/kernel/arch");
      ("cores", Int (Domain.recommended_domain_count ()));
    ]

let json_doc ~mode ~micro ~speedups ~e2e ~telemetry ~attribution =
  let open Psme_obs.Json in
  Obj
    [
      ("schema", Str "psme-bench/1");
      ("mode", Str mode);
      ("machine", machine_doc ());
      ( "telemetry",
        Obj (List.map (fun (k, v) -> (k, Float v)) telemetry) );
      ( "e2e",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("workload", Str r.e2e_workload);
                   ("variant", Str r.e2e_variant);
                   ("decisions", Int r.e2e_decisions);
                   ("elab_cycles", Int r.e2e_cycles);
                   ("wall_ns", Int r.e2e_wall_ns);
                   ("cycles_per_sec", Float r.e2e_cps);
                 ])
             e2e) );
      ( "micro",
        List
          (List.map
             (fun (name, est) ->
               Obj
                 [
                   ("name", Str name);
                   ("ns_per_run", match est with Some e -> Float e | None -> Null);
                 ])
             micro) );
      ( "speedup",
        List
          (List.map
             (fun (workload, points) ->
               Obj
                 [
                   ("workload", Str workload);
                   ("queues", Str "multi");
                   ( "points",
                     List
                       (List.map
                          (fun (p, s) ->
                            Obj [ ("procs", Int p); ("speedup", Float s) ])
                          points) );
                 ])
             speedups) );
      ( "attribution",
        List
          (List.map
             (fun (workload, procs, t, worst_cycle) ->
               let open Psme_obs.Attribution in
               Obj
                 ([
                    ("workload", Str workload);
                    ("procs", Int procs);
                    ("cycles", Int t.t_cycles);
                    ("ideal_us", Float t.t_ideal_us);
                    ("busy_us", Float t.t_busy_us);
                    ("gap_us", Float t.t_gap_us);
                    ("cp_residual_us", Float t.t_cp_residual_us);
                    ("imbalance_us", Float t.t_imbalance_us);
                    ("queue_us", Float t.t_queue_us);
                    ("lock_us", Float t.t_lock_us);
                    ( "dominant",
                      if t.t_cycles = 0 then Null
                      else Str (fst (totals_dominant t)) );
                  ]
                 @
                 (match worst_cycle with
                 | None -> []
                 | Some l ->
                   [
                     ( "worst_cycle",
                       Obj
                         [
                           ("cycle", Int l.a_cycle);
                           ("gap_us", Float l.a_gap_us);
                           ("dominant", Str (fst (dominant l)));
                         ] );
                   ])))
             attribution) );
    ]

let write_json path doc =
  let oc = open_out path in
  output_string oc (Psme_obs.Json.to_string doc);
  output_string oc "\n";
  close_out oc

(* --- driver -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--json FILE]\n\
    \       [--gate BASELINE.json] [--gate-tolerance X] [--gate-handicap X]";
  exit 2

let () =
  let quick = ref false in
  let json_path = ref None in
  let gate = ref None in
  let gate_tolerance = ref Psme_harness.Perf_gate.default_tolerance in
  let gate_handicap = ref 0. in
  let float_arg name x =
    match float_of_string_opt x with
    | Some v -> v
    | None ->
      prerr_endline (name ^ ": not a number: " ^ x);
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--gate" :: path :: rest ->
      gate := Some path;
      parse rest
    | "--gate-tolerance" :: x :: rest ->
      gate_tolerance := float_arg "--gate-tolerance" x;
      parse rest
    | "--gate-handicap" :: x :: rest ->
      (* self-test hook: degrade every current number by x (e.g. 0.2 =
         a seeded 20% uniform regression) and check the gate trips *)
      gate_handicap := float_arg "--gate-handicap" x;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let gating = !gate <> None in
  Format.printf "Soar/PSM-E reproduction — evaluation harness@.";
  Format.printf "(simulated Encore Multimax; see DESIGN.md for the cost model)@.";
  if (not !quick) && not gating then
    Psme_harness.Experiments.print_all Format.std_formatter;
  (* gate runs want turnaround, not paper tables: medium quotas *)
  let quota = if !quick then 0.05 else if gating then 0.15 else 0.5 in
  let micro = run_micro ~quota in
  Format.printf "@.== micro-benchmarks (Bechamel, ns/iteration) ==@.";
  List.iter
    (fun (name, est) ->
      match est with
      | Some e -> Format.printf "%-48s %12.0f ns/run@." name e
      | None -> Format.printf "%-48s (no estimate)@." name)
    micro;
  Psme_obs.Telemetry.reset Psme_obs.Telemetry.global;
  let e2e =
    let workloads =
      if !quick then [ Psme_workloads.Eight_puzzle.workload ]
      else [ Psme_workloads.Eight_puzzle.workload; Psme_workloads.Strips.workload ]
    in
    let reps = if !quick then 1 else if gating then 2 else 3 in
    Format.printf "@.== end-to-end cycles/sec (serial, learning on) ==@.";
    let rs = e2e_series ~reps workloads in
    List.iter
      (fun r ->
        Format.printf "%-14s %-12s %5d decisions %6d cycles %8.3f s  %9.0f cyc/s@."
          r.e2e_workload r.e2e_variant r.e2e_decisions r.e2e_cycles
          (float_of_int r.e2e_wall_ns /. 1e9)
          r.e2e_cps)
      rs;
    rs
  in
  (* allocation discipline over the e2e runs, from the always-on
     telemetry layer: total attributed minor words per elaboration
     cycle (lower is better; gated like any other benchmark) *)
  let telemetry =
    let tm = Psme_obs.Telemetry.global in
    let kv = Psme_obs.Telemetry.snapshot_kv tm in
    let get k = Option.value ~default:0. (List.assoc_opt k kv) in
    let cycles = get "telemetry.cycles" in
    if cycles <= 0. then []
    else begin
      let words =
        List.fold_left
          (fun a p ->
            a +. get ("telemetry.phase." ^ Psme_obs.Telemetry.phase_name p ^ ".minor_words"))
          0. Psme_obs.Telemetry.phases
      in
      let wpc = words /. cycles in
      Format.printf "@.== telemetry (e2e runs) ==@.";
      Format.printf "minor words / cycle %36.0f@." wpc;
      [ ("minor_words_per_cycle", wpc) ]
    end
  in
  let speedups =
    let procs_axis = if !quick then [ 1; 4; 8 ] else [ 1; 2; 4; 8; 13 ] in
    let workloads =
      if !quick then [ Psme_workloads.Eight_puzzle.workload ]
      else [ Psme_workloads.Eight_puzzle.workload; Psme_workloads.Strips.workload ]
    in
    List.map
      (fun (w : Psme_workloads.Workload.t) ->
        Format.printf "@.== sim speedup: %s (multiple queues) ==@." w.Psme_workloads.Workload.name;
        let pts = speedup_series ~procs_axis w in
        List.iter (fun (p, s) -> Format.printf "  %2d procs  %.2fx@." p s) pts;
        (w.Psme_workloads.Workload.name, pts))
      workloads
  in
  let attribution =
    let procs_axis = if !quick then [ 8 ] else [ 8; 11; 13 ] in
    let workloads =
      if !quick then [ Psme_workloads.Eight_puzzle.workload ]
      else
        [
          Psme_workloads.Strips.workload;
          Psme_workloads.Cypress.workload;
          Psme_workloads.Eight_puzzle.workload;
        ]
    in
    let rows = attribution_series ~procs_axis workloads in
    Format.printf "@.== speedup-loss attribution (multiple queues) ==@.";
    List.iter
      (fun (w, p, t, _) ->
        let open Psme_obs.Attribution in
        let pct v = if t.t_gap_us <= 0. then 0. else 100. *. v /. t.t_gap_us in
        Format.printf
          "  %-14s %2d procs  gap %9.0f us  chain %4.1f%%  imbal %4.1f%%  \
           queue %4.1f%%  lock %4.1f%%@."
          w p t.t_gap_us (pct t.t_cp_residual_us) (pct t.t_imbalance_us)
          (pct t.t_queue_us) (pct t.t_lock_us))
      rows;
    rows
  in
  let mode = if !quick then "quick" else "full" in
  let doc = json_doc ~mode ~micro ~speedups ~e2e ~telemetry ~attribution in
  (match !json_path with
  | Some path ->
    write_json path doc;
    Format.printf "@.wrote %s@." path
  | None -> ());
  let gate_status =
    match !gate with
    | None -> 0
    | Some baseline_path ->
      let read_file path =
        match open_in path with
        | exception Sys_error msg ->
          Error msg
        | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          Ok s
      in
      let result =
        match read_file baseline_path with
        | Error msg -> Error msg
        | Ok src -> (
          match Psme_harness.Perf_gate.doc_of_string src with
          | Error msg -> Error (baseline_path ^ ": " ^ msg)
          | Ok baseline ->
            let current =
              if !gate_handicap > 0. then begin
                (* degrade every measured number by the handicap: worse
                   is slower micro, fewer cycles/sec, lower speedup,
                   more words per cycle *)
                let h = 1. +. !gate_handicap in
                let rec worsen path j =
                  match j with
                  | Psme_obs.Json.Obj fields ->
                    Psme_obs.Json.Obj
                      (List.map (fun (k, v) -> (k, worsen (k :: path) v)) fields)
                  | Psme_obs.Json.List l ->
                    Psme_obs.Json.List (List.map (worsen path) l)
                  | Psme_obs.Json.Float x -> (
                    match path with
                    | "ns_per_run" :: _ | "minor_words_per_cycle" :: _ ->
                      Psme_obs.Json.Float (x *. h)
                    | "cycles_per_sec" :: _ | "speedup" :: _ ->
                      Psme_obs.Json.Float (x /. h)
                    | _ -> j)
                  | _ -> j
                in
                worsen [] doc
              end
              else doc
            in
            Ok
              (Psme_harness.Perf_gate.compare_docs ~tolerance:!gate_tolerance
                 ~baseline ~current ()))
      in
      (match result with
      | Error msg ->
        Format.printf "@.perf gate: cannot gate: %s@." msg;
        2
      | Ok verdict ->
        Format.printf "@.%a" Psme_harness.Perf_gate.pp verdict;
        Psme_harness.Perf_gate.exit_code verdict)
  in
  Format.printf "@.done.@.";
  exit gate_status
