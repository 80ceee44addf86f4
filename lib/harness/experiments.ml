open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine
open Psme_soar
open Psme_workloads

type chunking_mode =
  | Without
  | During
  | After

let procs_axis = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13 ]

type series = {
  s_task : string;
  s_uniproc_s : float;
  s_paper_uniproc_s : float;
  s_points : (int * float) list;
}

type speedup_figure = {
  fig_name : string;
  fig_title : string;
  fig_series : series list;
}

let workloads = [ Eight_puzzle.workload; Strips.workload; Cypress.workload ]

(* --- cached runs ------------------------------------------------------ *)

type run_data = {
  rd_summary : Agent.run_summary;
  rd_access_hist : (int * int) list;
  rd_initial_ces : float;  (* avg CEs of loaded non-chunk productions *)
}

let cache : (string, run_data) Hashtbl.t = Hashtbl.create 128
let chunk_cache : (string, Production.t list) Hashtbl.t = Hashtbl.create 8

let clear_cache () =
  Hashtbl.reset cache;
  Hashtbl.reset chunk_cache

let sim ?(trace = false) ?(queues = Parallel.Multiple_queues) procs =
  Engine.Sim_mode { Sim.procs; queues; collect_trace = trace }

let engine_key = function
  | Engine.Serial_mode -> "serial"
  | Engine.Parallel_mode { processes; queues } ->
    Printf.sprintf "par:%d:%s" processes
      (match queues with Parallel.Single_queue -> "1q" | Parallel.Multiple_queues -> "nq")
  | Engine.Sim_mode { Sim.procs; queues; collect_trace } ->
    Printf.sprintf "sim:%d:%s:%b" procs
      (match queues with Parallel.Single_queue -> "1q" | Parallel.Multiple_queues -> "nq")
      collect_trace

let mode_key = function Without -> "w" | During -> "d" | After -> "a"

let learned (w : Workload.t) =
  match Hashtbl.find_opt chunk_cache w.Workload.name with
  | Some cs -> cs
  | None ->
    let config = { Agent.default_config with Agent.learning = true } in
    let agent = w.Workload.make ~config () in
    ignore (Agent.run agent);
    let cs = Agent.learned_productions agent in
    Hashtbl.replace chunk_cache w.Workload.name cs;
    cs

let run ?(net_config = Network.default_config) ?(async = false) (w : Workload.t) mode
    engine_mode =
  let key =
    Printf.sprintf "%s|%s|%s|share=%b|bil=%b|async=%b" w.Workload.name (mode_key mode)
      (engine_key engine_mode) net_config.Network.share net_config.Network.bilinear async
  in
  match Hashtbl.find_opt cache key with
  | Some rd -> rd
  | None ->
    let config =
      {
        Agent.default_config with
        Agent.learning = (mode = During);
        engine_mode;
        net_config;
        async_elaboration = async;
      }
    in
    let extra = match mode with After -> learned w | Without | During -> [] in
    let agent = w.Workload.make ~config ~extra () in
    let summary = Agent.run agent in
    let net = Agent.network agent in
    (* fold the final cycle's bucket counters into the histogram *)
    Memory.reset_cycle_stats net.Network.mem;
    let initial =
      Network.productions net
      |> List.filter (fun pm ->
             not pm.Network.meta_production.Production.is_chunk)
      |> List.map (fun pm -> Production.num_ces pm.Network.meta_production)
    in
    let rd =
      {
        rd_summary = summary;
        rd_access_hist = Memory.access_histogram net.Network.mem;
        rd_initial_ces =
          float_of_int (List.fold_left ( + ) 0 initial)
          /. float_of_int (max 1 (List.length initial));
      }
    in
    Hashtbl.replace cache key rd;
    rd

let sum_serial stats = List.fold_left (fun a s -> a +. s.Cycle.serial_us) 0. stats
let sum_makespan stats = List.fold_left (fun a s -> a +. s.Cycle.makespan_us) 0. stats
let sum_tasks stats = List.fold_left (fun a s -> a + s.Cycle.tasks) 0 stats
let sum_spins stats = List.fold_left (fun a s -> a +. s.Cycle.queue_spins) 0. stats

let speedup_of stats =
  let m = sum_makespan stats in
  if m <= 0. then 1.0 else sum_serial stats /. m

(* --- speedup sweeps ---------------------------------------------------- *)

let sweep ~mode ~queues ~pick w =
  let uniproc =
    let rd = run w mode (sim ~queues 1) in
    sum_serial (pick rd.rd_summary) /. 1e6
  in
  let points =
    List.map
      (fun p ->
        let rd = run w mode (sim ~queues p) in
        (p, speedup_of (pick rd.rd_summary)))
      procs_axis
  in
  {
    s_task = w.Workload.name;
    s_uniproc_s = uniproc;
    s_paper_uniproc_s =
      (match mode with
      | After -> w.Workload.paper_uniproc_after_s
      | Without | During -> w.Workload.paper_uniproc_s);
    s_points = points;
  }

let match_cycles (s : Agent.run_summary) = s.Agent.match_stats
let update_cycles (s : Agent.run_summary) = s.Agent.update_stats

let figure_6_1 () =
  {
    fig_name = "figure-6-1";
    fig_title = "Speedups without chunking, single task queue";
    fig_series =
      List.map
        (sweep ~mode:Without ~queues:Parallel.Single_queue ~pick:match_cycles)
        workloads;
  }

let figure_6_2 () =
  List.map
    (fun (w : Workload.t) ->
      let rd = run w Without (sim ~queues:Parallel.Single_queue 13) in
      let total =
        List.fold_left (fun a (_, n) -> a + n) 0 rd.rd_access_hist
      in
      let pct =
        List.map
          (fun (k, n) -> (k, 100. *. float_of_int n /. float_of_int (max 1 total)))
          rd.rd_access_hist
      in
      (w.Workload.name, pct))
    workloads

let figure_6_3 () =
  {
    fig_name = "figure-6-3";
    fig_title = "Task-queue contention (spins/task), single queue";
    fig_series =
      List.map
        (fun (w : Workload.t) ->
          let points =
            List.filter_map
              (fun p ->
                if p < 3 then None
                else
                  let rd = run w Without (sim ~queues:Parallel.Single_queue p) in
                  let stats = match_cycles rd.rd_summary in
                  Some (p, sum_spins stats /. float_of_int (max 1 (sum_tasks stats))))
              procs_axis
          in
          {
            s_task = w.Workload.name;
            s_uniproc_s = 0.;
            s_paper_uniproc_s = 0.;
            s_points = points;
          })
        workloads;
  }

let figure_6_4 () =
  {
    fig_name = "figure-6-4";
    fig_title = "Speedups without chunking, multiple task queues";
    fig_series =
      List.map
        (sweep ~mode:Without ~queues:Parallel.Multiple_queues ~pick:match_cycles)
        workloads;
  }

let figure_6_5 () =
  let rd = run Eight_puzzle.workload Without (sim 11) in
  List.filter_map
    (fun (s : Cycle.stats) ->
      if s.Cycle.tasks = 0 then None else Some (s.Cycle.tasks, Cycle.speedup s))
    (match_cycles rd.rd_summary)

let figure_6_6 () =
  let rd = run Eight_puzzle.workload Without (sim ~trace:true 11) in
  let candidates =
    List.filter
      (fun (s : Cycle.stats) -> s.Cycle.tasks >= 150 && Array.length s.Cycle.trace > 0)
      (match_cycles rd.rd_summary)
  in
  let worst =
    List.fold_left
      (fun acc s ->
        match acc with
        | None -> Some s
        | Some best -> if Cycle.speedup s < Cycle.speedup best then Some s else acc)
      None candidates
  in
  match worst with
  | None -> []
  | Some s ->
    let tr = s.Cycle.trace in
    let n = Array.length tr in
    let step = max 1 (n / 200) in
    List.filteri (fun i _ -> i mod step = 0) (Array.to_list tr)

(* --- bilinear (Figures 6-7/6-8) ---------------------------------------- *)

type bilinear_report = {
  bl_production : string;
  bl_ces : int;
  bl_linear_depth : int;
  bl_bilinear_depth : int;
  bl_linear_speedup : float;
  bl_bilinear_speedup : float;
}

let bilinear_config =
  { Network.default_config with Network.bilinear = true; bilinear_min_ces = 15 }

let chain_depth net pnode_id =
  let rec go id acc =
    match (Network.node net id).Network.parent with
    | None -> acc
    | Some p -> go p (acc + 1)
  in
  go pnode_id 1

let figure_6_8_bilinear () =
  let monitor = Sym.intern "monitor-strips-state" in
  let depth_with cfg =
    let config = { Agent.default_config with Agent.net_config = cfg } in
    let agent = Strips.make_agent ~config () in
    let net = Agent.network agent in
    match Network.find_production net monitor with
    | Some pm -> chain_depth net pm.Network.pnode
    | None -> 0
  in
  let speedup_with cfg =
    let rd = run ~net_config:cfg Strips.workload Without (sim 13) in
    speedup_of (match_cycles rd.rd_summary)
  in
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  let mp = Parser.parse_production schema (Strips.monitor_production Strips.default_layout) in
  {
    bl_production = "monitor-strips-state";
    bl_ces = Production.num_ces mp;
    bl_linear_depth = depth_with Network.default_config;
    bl_bilinear_depth = depth_with bilinear_config;
    bl_linear_speedup = speedup_with Network.default_config;
    bl_bilinear_speedup = speedup_with bilinear_config;
  }

let figure_6_9 () =
  {
    fig_name = "figure-6-9";
    fig_title = "Speedups in the update phase, multiple task queues";
    fig_series =
      List.map
        (sweep ~mode:During ~queues:Parallel.Multiple_queues ~pick:update_cycles)
        workloads;
  }

let figure_6_10 () =
  {
    fig_name = "figure-6-10";
    fig_title = "Speedups after chunking, multiple task queues";
    fig_series =
      List.map
        (sweep ~mode:After ~queues:Parallel.Multiple_queues ~pick:match_cycles)
        workloads;
  }

let cycle_histogram stats =
  let h = Histogram.create ~bucket_width:25. ~buckets:48 in
  List.iter
    (fun (s : Cycle.stats) ->
      if s.Cycle.tasks > 0 then Histogram.add h (float_of_int s.Cycle.tasks))
    stats;
  h

let figure_6_11 () =
  let rd = run Eight_puzzle.workload Without (sim 11) in
  cycle_histogram (match_cycles rd.rd_summary)

let figure_6_12 () =
  let rd = run Eight_puzzle.workload After (sim 11) in
  cycle_histogram (match_cycles rd.rd_summary)

(* --- tables -------------------------------------------------------------- *)

type t51_row = {
  r51_task : string;
  r51_task_ces : float;
  r51_chunk_ces : float;
  r51_bytes_per_chunk : float;
  r51_bytes_per_two_input : float;
  r51_paper : float * float * float * float;
}

let paper_t51 = function
  | "eight-puzzle" -> (18., 36., 7900., 219.)
  | "strips" -> (13., 34., 8500., 250.)
  | "cypress" -> (26., 51., 15500., 304.)
  | _ -> (0., 0., 0., 0.)

let table_5_1 () =
  List.map
    (fun (w : Workload.t) ->
      let rd = run w During Engine.Serial_mode in
      let chunks = rd.rd_summary.Agent.chunks in
      let n = max 1 (List.length chunks) in
      let favg f =
        List.fold_left (fun a c -> a +. f c) 0. chunks /. float_of_int n
      in
      let two_input =
        let vals =
          List.filter_map
            (fun (c : Agent.chunk_info) ->
              if Float.is_nan c.Agent.ci_bytes_per_two_input then None
              else Some c.Agent.ci_bytes_per_two_input)
            chunks
        in
        match vals with
        | [] -> nan
        | _ -> List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals)
      in
      {
        r51_task = w.Workload.name;
        r51_task_ces = rd.rd_initial_ces;
        r51_chunk_ces = favg (fun c -> float_of_int c.Agent.ci_ces);
        r51_bytes_per_chunk = favg (fun c -> float_of_int c.Agent.ci_bytes);
        r51_bytes_per_two_input = two_input;
        r51_paper = paper_t51 w.Workload.name;
      })
    workloads

type t52_row = {
  r52_task : string;
  r52_chunks : int;
  r52_shared_ms : float;
  r52_unshared_ms : float;
  r52_shared_bytes : int;
  r52_unshared_bytes : int;
  r52_paper_chunks : int;
  r52_paper_shared_s : float;
  r52_paper_unshared_s : float;
}

let paper_t52 = function
  | "eight-puzzle" -> (20, 23.7, 25.5)
  | "strips" -> (26, 31.5, 34.7)
  | "cypress" -> (26, 56.7, 60.2)
  | _ -> (0, 0., 0.)

(* The workload's learned chunks, added in order to a fresh network with
   the workload's own productions loaded: each addition's compile time
   and generated bytes. Each timed [Build.add_production] starts on an
   empty minor heap, so no minor collection, and no major slice riding
   on one, falls inside it; an agent's [ci_compile_ns] includes them.
   (A forced major collection would do the same, but on OCaml 5.1 the
   work it does is credited against later allocation: two per chunk
   left the rest of the process running with no major GC, gigabytes of
   garbage behind.) *)
let chunk_compiles ?(net_config = Network.default_config) (w : Workload.t) =
  let chunks = learned w in
  let agent = w.Workload.make ~config:{ Agent.default_config with Agent.net_config } () in
  let net = Agent.network agent in
  List.map
    (fun prod ->
      Gc.minor ();
      let res, ns = Clock.time_ns (fun () -> Build.add_production net prod) in
      (ns, Codesize.bytes_of_addition net res))
    chunks

let table_5_2 () =
  List.map
    (fun (w : Workload.t) ->
      let ms cs = List.fold_left (fun a (ns, _) -> a +. (float_of_int ns /. 1e6)) 0. cs in
      let bytes cs = List.fold_left (fun a (_, b) -> a + b) 0 cs in
      let shared = chunk_compiles w in
      let unshared =
        chunk_compiles ~net_config:{ Network.default_config with Network.share = false } w
      in
      let pc, ps, pu = paper_t52 w.Workload.name in
      {
        r52_task = w.Workload.name;
        r52_chunks = List.length shared;
        r52_shared_ms = ms shared;
        r52_unshared_ms = ms unshared;
        r52_shared_bytes = bytes shared;
        r52_unshared_bytes = bytes unshared;
        r52_paper_chunks = pc;
        r52_paper_shared_s = ps;
        r52_paper_unshared_s = pu;
      })
    workloads

type t61_row = {
  r61_task : string;
  r61_uniproc_s : float;
  r61_tasks : int;
  r61_us_per_task : float;
  r61_paper : float * int * float;
}

let paper_t61 = function
  | "eight-puzzle" -> (37.7, 87974, 428.)
  | "strips" -> (43.7, 99611, 438.)
  | "cypress" -> (172.7, 432390, 400.)
  | _ -> (0., 0, 0.)

let table_6_1 () =
  List.map
    (fun (w : Workload.t) ->
      let rd = run w Without Engine.Serial_mode in
      let stats = match_cycles rd.rd_summary in
      let tasks = sum_tasks stats in
      let serial = sum_serial stats in
      {
        r61_task = w.Workload.name;
        r61_uniproc_s = serial /. 1e6;
        r61_tasks = tasks;
        r61_us_per_task = serial /. float_of_int (max 1 tasks);
        r61_paper = paper_t61 w.Workload.name;
      })
    workloads

(* --- beyond the paper: §7 asynchronous elaboration ----------------------- *)

type async_row = {
  a_task : string;
  a_sync_speedup : float;
  a_async_speedup : float;
  a_same_outcome : bool;
}

let future_async_elaboration () =
  List.map
    (fun (w : Workload.t) ->
      let sync = run w Without (sim 13) in
      let asyn = run ~async:true w Without (sim 13) in
      {
        a_task = w.Workload.name;
        a_sync_speedup = speedup_of (match_cycles sync.rd_summary);
        a_async_speedup = speedup_of (match_cycles asyn.rd_summary);
        a_same_outcome =
          sync.rd_summary.Agent.decisions = asyn.rd_summary.Agent.decisions
          && sync.rd_summary.Agent.halted = asyn.rd_summary.Agent.halted;
      })
    workloads

let future_io_rate () =
  List.map
    (fun rate ->
      let params = { Io_stream.default_params with Io_stream.rate } in
      let config = { Agent.default_config with Agent.engine_mode = sim 13 } in
      let agent = Io_stream.make_agent ~config ~params () in
      let summary = Agent.run agent in
      (rate, speedup_of summary.Agent.match_stats))
    [ 1; 2; 4; 8; 16 ]

(* --- rendering -------------------------------------------------------------- *)

let pp_speedup_figure ppf fig =
  Format.fprintf ppf "@.== %s: %s ==@." fig.fig_name fig.fig_title;
  List.iter
    (fun s ->
      if s.s_uniproc_s > 0. then
        Format.fprintf ppf "%-14s uniproc %.1f s (paper %.1f s)@." s.s_task
          s.s_uniproc_s s.s_paper_uniproc_s
      else Format.fprintf ppf "%-14s@." s.s_task;
      Format.fprintf ppf "  procs: %s@."
        (String.concat " " (List.map (fun (p, _) -> Printf.sprintf "%6d" p) s.s_points));
      Format.fprintf ppf "  value: %s@."
        (String.concat " " (List.map (fun (_, y) -> Printf.sprintf "%6.2f" y) s.s_points)))
    fig.fig_series

let print_all ppf =
  let t61 = table_6_1 () in
  Format.fprintf ppf "@.== table-6-1: task granularity ==@.";
  Format.fprintf ppf "%-14s %12s %12s %12s   (paper: s / tasks / us)@." "task"
    "uniproc-s" "tasks" "us/task";
  List.iter
    (fun r ->
      let ps, pt, pu = r.r61_paper in
      Format.fprintf ppf "%-14s %12.1f %12d %12.0f   (%.1f / %d / %.0f)@." r.r61_task
        r.r61_uniproc_s r.r61_tasks r.r61_us_per_task ps pt pu)
    t61;
  pp_speedup_figure ppf (figure_6_1 ());
  Format.fprintf ppf "@.== figure-6-2: hash-bucket contention (13 procs) ==@.";
  List.iter
    (fun (task, pts) ->
      Format.fprintf ppf "%-14s@." task;
      List.iter
        (fun (k, pct) ->
          if k <= 16 then Format.fprintf ppf "  %3d accesses/bucket/cycle: %5.1f%%@." k pct)
        pts)
    (figure_6_2 ());
  pp_speedup_figure ppf (figure_6_3 ());
  pp_speedup_figure ppf (figure_6_4 ());
  Format.fprintf ppf "@.== figure-6-5: Eight-Puzzle cycle speedups vs tasks/cycle (11 procs) ==@.";
  let f5 = figure_6_5 () in
  let buckets = [ (0, 50); (50, 100); (100, 200); (200, 400); (400, 800); (800, 10000) ] in
  List.iter
    (fun (lo, hi) ->
      let xs = List.filter (fun (t, _) -> t >= lo && t < hi) f5 in
      if xs <> [] then begin
        let avg = List.fold_left (fun a (_, s) -> a +. s) 0. xs /. float_of_int (List.length xs) in
        Format.fprintf ppf "  %5d-%-5d tasks: %3d cycles, mean speedup %5.2f@." lo hi
          (List.length xs) avg
      end)
    buckets;
  Format.fprintf ppf "@.== figure-6-6: tasks in system over time (one large low-speedup cycle) ==@.";
  List.iteri
    (fun i (t, n) ->
      if i mod 10 = 0 then Format.fprintf ppf "  t=%8.0fus  tasks=%4d@." t n)
    (figure_6_6 ());
  let bl = figure_6_8_bilinear () in
  Format.fprintf ppf "@.== figure-6-7/6-8: long chains and the constrained bilinear network ==@.";
  Format.fprintf ppf "  %s: %d CEs@." bl.bl_production bl.bl_ces;
  Format.fprintf ppf "  beta-chain depth: linear %d -> bilinear %d@." bl.bl_linear_depth
    bl.bl_bilinear_depth;
  Format.fprintf ppf "  Strips speedup at 13 procs: linear %.2f -> bilinear %.2f@."
    bl.bl_linear_speedup bl.bl_bilinear_speedup;
  pp_speedup_figure ppf (figure_6_9 ());
  pp_speedup_figure ppf (figure_6_10 ());
  Format.fprintf ppf "@.== figure-6-11: Eight-Puzzle tasks/cycle, without chunking ==@.";
  Histogram.pp () ppf (figure_6_11 ());
  Format.fprintf ppf "@.== figure-6-12: Eight-Puzzle tasks/cycle, after chunking ==@.";
  Histogram.pp () ppf (figure_6_12 ());
  Format.fprintf ppf "@.== table-5-1: chunk sizes ==@.";
  List.iter
    (fun r ->
      let pt, pc, pb, p2 = r.r51_paper in
      Format.fprintf ppf
        "%-14s task-CEs %5.1f (paper %2.0f)  chunk-CEs %5.1f (%2.0f)  bytes/chunk %7.0f (%5.0f)  bytes/2-input %5.0f (%3.0f)@."
        r.r51_task r.r51_task_ces pt r.r51_chunk_ces pc r.r51_bytes_per_chunk pb
        r.r51_bytes_per_two_input p2)
    (table_5_1 ());
  Format.fprintf ppf
    "@.== beyond the paper: I/O-driven wme churn (section 7, 13 procs) ==@.";
  List.iter
    (fun (rate, sp) ->
      Format.fprintf ppf "  %2d readings/channel/cycle -> speedup %.2f@." rate sp)
    (future_io_rate ());
  Format.fprintf ppf
    "@.== beyond the paper: asynchronous elaboration (section 7, 13 procs) ==@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s sync %.2f -> async %.2f  (same outcome: %b)@." r.a_task
        r.a_sync_speedup r.a_async_speedup r.a_same_outcome)
    (future_async_elaboration ());
  Format.fprintf ppf "@.== table-5-2: run-time chunk compilation ==@.";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-14s chunks %3d (paper %2d)  shared %7.2f ms / %6d B  unshared %7.2f ms / %6d B  (paper %4.1f s / %4.1f s)@."
        r.r52_task r.r52_chunks r.r52_paper_chunks r.r52_shared_ms r.r52_shared_bytes
        r.r52_unshared_ms r.r52_unshared_bytes r.r52_paper_shared_s
        r.r52_paper_unshared_s)
    (table_5_2 ());
  Format.fprintf ppf "@."

let markdown_report () =
  let buf = Buffer.create 16384 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "# EXPERIMENTS — paper vs. measured\n\n";
  pr "All measurements produced by `dune exec bin/soar_cli.exe -- report`\n";
  pr "(`--write-experiments EXPERIMENTS.md` regenerates this file). Speedups come\n";
  pr "from the discrete-event simulated multiprocessor over the real Rete\n";
  pr "task stream; times are the calibrated cost model's microseconds\n";
  pr "(NS32032-class processor). Absolute numbers are not expected to match\n";
  pr "the 1988 testbed; shapes are (see DESIGN.md).\n\n";
  pr "## Table 6-1 — task granularity\n\n";
  pr "| task | uniproc s (paper) | tasks (paper) | us/task (paper) |\n|---|---|---|---|\n";
  List.iter
    (fun r ->
      let ps, pt, pu = r.r61_paper in
      pr "| %s | %.1f (%.1f) | %d (%d) | %.0f (%.0f) |\n" r.r61_task r.r61_uniproc_s ps
        r.r61_tasks pt r.r61_us_per_task pu)
    (table_6_1 ());
  let dump_fig fig =
    pr "\n## %s — %s\n\n" fig.fig_name fig.fig_title;
    let axis = match fig.fig_series with s :: _ -> List.map fst s.s_points | [] -> [] in
    pr "| task | uniproc s (paper) |%s\n"
      (String.concat "" (List.map (fun p -> Printf.sprintf " %d |" p) axis));
    pr "|---|---|%s\n" (String.concat "" (List.map (fun _ -> "---|") axis));
    List.iter
      (fun s ->
        pr "| %s | %.1f (%.1f) |%s\n" s.s_task s.s_uniproc_s s.s_paper_uniproc_s
          (String.concat ""
             (List.map (fun (_, y) -> Printf.sprintf " %.2f |" y) s.s_points)))
      fig.fig_series
  in
  dump_fig (figure_6_1 ());
  pr "\nPaper shape: peaks ~4.2x, decline past ~9 processes. \n";
  dump_fig (figure_6_3 ());
  pr "\nPaper shape: spins/task grows with processes at a similar rate for all three tasks.\n";
  dump_fig (figure_6_4 ());
  pr "\nPaper shape: multiple queues lift the curves (to ~7x in Strips/Cypress).\n";
  pr "\n## figure-6-2 — hash-bucket contention\n\n";
  List.iter
    (fun (task, pts) ->
      pr "- %s: " task;
      List.iter
        (fun (k, pct) -> if k <= 8 then pr "%d:%.1f%% " k pct)
        pts;
      pr "\n")
    (figure_6_2 ());
  pr "\nPaper shape: most left tokens see 1-2 accesses/bucket/cycle; Strips is the worst case.\n";
  pr "\n## figure-6-5 / figure-6-6 — per-cycle behaviour (Eight-Puzzle, 11 procs)\n\n";
  let f5 = figure_6_5 () in
  pr "%d cycles; small cycles cluster at low speedups, large cycles reach higher ones.\n"
    (List.length f5);
  (match figure_6_6 () with
  | [] -> pr "(no large low-speedup cycle found)\n"
  | trace ->
    let tmax = List.fold_left (fun a (t, _) -> max a t) 0. trace in
    let peak = List.fold_left (fun a (_, n) -> max a n) 0 trace in
    pr
      "Worst large cycle: peak %d concurrent tasks, tail of few tasks until %.0f us (the long-chain effect).\n"
      peak tmax);
  let bl = figure_6_8_bilinear () in
  pr "\n## figure-6-7/6-8 — long chains and the constrained bilinear network\n\n";
  pr "- `%s`: %d CEs\n" bl.bl_production bl.bl_ces;
  pr "- beta-chain depth: linear %d -> bilinear %d (paper: 43 CEs -> chain of 15)\n"
    bl.bl_linear_depth bl.bl_bilinear_depth;
  pr "- Strips speedup at 13 procs: linear %.2f -> bilinear %.2f\n" bl.bl_linear_speedup
    bl.bl_bilinear_speedup;
  dump_fig (figure_6_9 ());
  pr
    "\nPaper shape: the update phase shows the highest speedups of all\n\
     measurements. Partially reproduced: our compiler shares far more\n\
     chunk structure than PSM-E's code generator could (Table 5-2's\n\
     sharing column), so each update touches fewer new nodes and the\n\
     update task sets are much smaller than the paper's — Strips's\n\
     updates are near-trivial and do not parallelize.\n";
  dump_fig (figure_6_10 ());
  pr
    "\nPaper shape: after chunking, Eight-Puzzle gains most (~10x at 13 procs); Cypress's after run is very short.\n";
  let dump_hist name h =
    pr "\n## %s — tasks/cycle histogram\n\n| bucket | share |\n|---|---|\n" name;
    List.iter
      (fun (lo, hi, n, frac) ->
        if n > 0 then pr "| %.0f-%.0f | %.1f%% |\n" lo hi (100. *. frac))
      (Histogram.rows h)
  in
  dump_hist "figure-6-11 (without chunking)" (figure_6_11 ());
  dump_hist "figure-6-12 (after chunking)" (figure_6_12 ());
  pr "\nPaper shape: chunking moves cycle sizes right (30%%+ of cycles above 1000 tasks after learning).\n";
  pr "\n## Table 5-1 — chunk sizes\n\n";
  pr "| task | task CEs (paper) | chunk CEs (paper) | bytes/chunk (paper) | bytes/2-input (paper) |\n|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      let pt, pc, pb, p2 = r.r51_paper in
      pr "| %s | %.1f (%.0f) | %.1f (%.0f) | %.0f (%.0f) | %.0f (%.0f) |\n" r.r51_task
        r.r51_task_ces pt r.r51_chunk_ces pc r.r51_bytes_per_chunk pb
        r.r51_bytes_per_two_input p2)
    (table_5_1 ());
  pr "\n## Table 5-2 — run-time chunk compilation\n\n";
  pr "| task | chunks (paper) | shared ms / bytes | unshared ms / bytes | paper shared/unshared s |\n|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      pr "| %s | %d (%d) | %.2f / %d | %.2f / %d | %.1f / %.1f |\n" r.r52_task
        r.r52_chunks r.r52_paper_chunks r.r52_shared_ms r.r52_shared_bytes
        r.r52_unshared_ms r.r52_unshared_bytes r.r52_paper_shared_s
        r.r52_paper_unshared_s)
    (table_5_2 ());
  pr
    "\nPaper shape: compiling with sharing generates less code and is faster\n\
     despite the search for share points. The byte columns carry the\n\
     deterministic effect; our heap-target compilation takes tens of\n\
     microseconds per chunk, so the millisecond columns jitter.\n";
  pr "\n## Beyond the paper: asynchronous elaboration (section 7)\n\n";
  pr "| task | sync speedup @13 | async speedup @13 | same outcome |\n|---|---|---|---|\n";
  List.iter
    (fun r ->
      pr "| %s | %.2f | %.2f | %b |\n" r.a_task r.a_sync_speedup r.a_async_speedup
        r.a_same_outcome)
    (future_async_elaboration ());
  pr
    "\nThe paper predicted asynchronous firing would raise parallelism. It does\n\
     where synchronization dominates (Eight-Puzzle's small cycles merge into\n\
     continuous episodes); negation-involving productions still fire at episode\n\
     quiescence for soundness, so the gain is bounded.\n";
  pr "\n## Beyond the paper: I/O-driven wme change rate (section 7)\n\n";
  pr "| readings/channel/cycle | speedup @13 |\n|---|---|\n";
  List.iter (fun (rate, sp) -> pr "| %d | %.2f |\n" rate sp) (future_io_rate ());
  pr
    "\nThe paper expected the I/O module and robotics-style applications to raise\n\
     the rate of working-memory change and hence the parallelism: at 16 readings\n\
     per channel per cycle the match runs near-linearly on 13 processes.\n";
  Buffer.contents buf
