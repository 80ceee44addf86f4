(* The closed-loop timed run: one client, one domain, the serial engine.

   Every operation is timed from outside the program: [make] and
   [Agent.run] are bracketed by a monotonic clock, decisions are stamped
   by the [Agent.set_monitor] callback (into a preallocated buffer, so
   the callback allocates nothing inside the run), and the program's own
   counters — always-on telemetry phases and the run summary — are read
   after the run, outside the timed region. *)

open Psme_soar
open Psme_engine
module Telemetry = Psme_obs.Telemetry

let now_ns = Calib.now_ns

(* --- per-operation record ---------------------------------------------- *)

type phase_acct = { ph_ns : int array; ph_words : float array }
(** Telemetry self time and minor words, indexed like
    [Telemetry.phases]. *)

type op_result = {
  label : string;
  setup_t0 : int;  (** monotonic ns at [make] entry *)
  setup_ns : int;
  run_t0 : int;  (** monotonic ns at [Agent.run] entry *)
  run_ns : int;
  decision_stamps : int array;  (** monotonic ns of each monitor callback *)
  decisions : int;
  cycles : int;  (** elaboration cycles *)
  minor_words : float;  (** [Gc.minor_words] delta around [Agent.run] *)
  heap_words : int;
      (** live words after a full major GC with the agent live, less
          those after it is dropped: the agent's own footprint at the end
          of its run. -1 if not sampled *)
  phases : phase_acct;
  match_tasks : int;
  update_tasks : int;
  alpha_activations : int;
  cycle_wall_ns : int array;  (** wall time of each elaboration cycle's match *)
  update_batches : int;
  update_wall_ns : int;
  chunks : int;
  chunk_ces : int;
  chunk_new_nodes : int;
  chunk_compile_ns : int array;  (** each chunk's compile time *)
  error : string option;  (** the output check's verdict *)
  scale : float;
      (** [Calib.reference_ns] / the calibration kernel's time around
          this operation: multiplies its timings to the reference speed *)
}

let phase_acct_of_telemetry () =
  let kv = Telemetry.snapshot_kv Telemetry.global in
  let get p field =
    Option.value ~default:0.
      (List.assoc_opt
         ("telemetry.phase." ^ Telemetry.phase_name p ^ "." ^ field)
         kv)
  in
  {
    ph_ns =
      Array.of_list
        (List.map (fun p -> int_of_float (get p "time_us" *. 1e3)) Telemetry.phases);
    ph_words = Array.of_list (List.map (fun p -> get p "minor_words") Telemetry.phases);
  }

let phase_index p =
  let rec go i = function
    | [] -> invalid_arg "phase_index"
    | q :: rest -> if q = p then i else go (i + 1) rest
  in
  go 0 Telemetry.phases

let serial_config (w : Workloads.t) =
  { Agent.default_config with Agent.learning = w.Workloads.learning }

(* Decision stamps go into this buffer; it is grown before each run to
   hold the run's decision limit, never during it. *)
let stamps = ref (Array.make 4096 0)
let n_stamps = ref 0

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* [heap_words] here is the live heap with the agent still live. *)
let[@inline never] run_agent ~sample_heap ~config (op : Workloads.op) =
  let setup_t0 = now_ns () in
  let agent = op.Workloads.make config in
  let setup_ns = now_ns () - setup_t0 in
  let limit = (Agent.config agent).Agent.max_decisions + 1 in
  if Array.length !stamps < limit then stamps := Array.make limit 0;
  n_stamps := 0;
  Agent.set_monitor agent (fun _ ->
      let buf = !stamps in
      let i = !n_stamps in
      if i < Array.length buf then begin
        buf.(i) <- now_ns ();
        n_stamps := i + 1
      end);
  Telemetry.reset Telemetry.global;
  let words0 = Gc.minor_words () in
  let run_t0 = now_ns () in
  let s = Agent.run agent in
  let run_ns = now_ns () - run_t0 in
  let minor_words = Gc.minor_words () -. words0 in
  let decision_stamps = Array.sub !stamps 0 !n_stamps in
  let phases = phase_acct_of_telemetry () in
  let heap_words = if sample_heap then live_words () else -1 in
  let error =
    match op.Workloads.check agent s with Ok () -> None | Error e -> Some e
  in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  {
    label = op.Workloads.label;
    setup_t0;
    setup_ns;
    run_t0;
    run_ns;
    decision_stamps;
    decisions = s.Agent.decisions;
    cycles = s.Agent.elab_cycles;
    minor_words;
    heap_words;
    phases;
    match_tasks = sum (fun c -> c.Cycle.tasks) s.Agent.match_stats;
    update_tasks = sum (fun c -> c.Cycle.tasks) s.Agent.update_stats;
    alpha_activations = sum (fun c -> c.Cycle.alpha_activations) s.Agent.match_stats;
    cycle_wall_ns =
      Array.of_list (List.map (fun c -> c.Cycle.wall_ns) s.Agent.match_stats);
    update_batches = List.length s.Agent.update_stats;
    update_wall_ns = sum (fun c -> c.Cycle.wall_ns) s.Agent.update_stats;
    chunks = List.length s.Agent.chunks;
    chunk_ces = sum (fun c -> c.Agent.ci_ces) s.Agent.chunks;
    chunk_new_nodes = sum (fun c -> c.Agent.ci_new_nodes) s.Agent.chunks;
    chunk_compile_ns =
      Array.of_list (List.map (fun c -> c.Agent.ci_compile_ns) s.Agent.chunks);
    error;
    scale = 1.;
  }

(* Each operation starts from a collected heap, so the collector work
   inside it is the work its own allocation causes. The agent's
   footprint excludes what it added to global tables (interned symbols),
   which would otherwise land on whichever operation grew them. *)
let run_op ?(sample_heap = false) ~config op =
  Gc.full_major ();
  let r = run_agent ~sample_heap ~config op in
  if sample_heap then { r with heap_words = r.heap_words - live_words () } else r

(* --- the timed loop -------------------------------------------------------- *)

type loop = {
  workload : Workloads.t;
  warmup : op_result;
  passes : op_result list list;  (** in run order; the first samples the heap *)
}

let min_passes = 3

let all_ops loop = List.concat loop.passes

(* Repetitions of each operation, by label, in order of first run. *)
let by_label ops =
  let labels = ref [] and reps = Hashtbl.create 16 in
  List.iter
    (fun o ->
      match Hashtbl.find_opt reps o.label with
      | Some l -> Hashtbl.replace reps o.label (o :: l)
      | None ->
        labels := o.label :: !labels;
        Hashtbl.replace reps o.label [ o ])
    ops;
  List.rev_map (fun l -> (l, List.rev (Hashtbl.find reps l))) !labels

(* Whole passes run back to back until [seconds] have elapsed and at
   least [min_passes] are done. *)
let timed_loop ~seed ~seconds (w : Workloads.t) =
  let config = serial_config w in
  let warmup = run_op ~config (w.Workloads.op ~seed 0) in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let t0 = now_ns () in
  (* a calibration sample before the first operation and after each *)
  let before = ref (Calib.sample ()) in
  let run_pass p =
    let ops = ref [] in
    for j = 1 to w.Workloads.pass_len do
      let op = w.Workloads.op ~seed ((p * w.Workloads.pass_len) + j) in
      let r = run_op ~sample_heap:(p = 0) ~config op in
      let after = Calib.sample () in
      ops := { r with scale = Calib.reference_ns /. sqrt (!before *. after) } :: !ops;
      before := after
    done;
    List.rev !ops
  in
  let rec go p acc =
    if p >= min_passes && now_ns () - t0 >= budget_ns then List.rev acc
    else go (p + 1) (run_pass p :: acc)
  in
  { workload = w; warmup; passes = go 0 [] }

(* --- single runs of the canonical instance ---------------------------- *)

type canonical = {
  wall_ns : int;
  elab_cycles : int;
  totals : Cycle.stats;  (** over all match and update episodes *)
  verdict : string option;
}

(* [monitor] runs after every decision and [inspect] after the run; both
   see the agent, which nothing keeps afterwards, so the timed loop's
   heap samples do not include it. *)
let run_canonical ?monitor ?(inspect = ignore) ~config (w : Workloads.t) =
  let op = w.Workloads.canonical in
  let agent = op.Workloads.make config in
  Option.iter (fun m -> Agent.set_monitor agent (fun _ -> m agent)) monitor;
  let t0 = now_ns () in
  let summary = Agent.run agent in
  let wall_ns = now_ns () - t0 in
  let verdict =
    match op.Workloads.check agent summary with Ok () -> None | Error e -> Some e
  in
  inspect agent;
  {
    wall_ns;
    elab_cycles = summary.Agent.elab_cycles;
    totals = Engine.totals (Agent.engine agent);
    verdict;
  }

let sim_config ~procs (w : Workloads.t) =
  {
    (serial_config w) with
    Agent.engine_mode =
      Engine.Sim_mode
        { Sim.procs; queues = Parallel.Multiple_queues; collect_trace = false };
  }

(* The canonical instance on the simulated multiprocessor. Modeled time
   depends only on the task graph and the cost model, so the speedup
   repeats exactly for a given process history. *)
let sim ~procs w = run_canonical ~config:(sim_config ~procs w) w
