(* Per-layer metrics, each measured from outside the program:
   - the timed loop's operations, through the telemetry phase accounts
     and run summaries read after each run, with times scaled to the
     calibration kernel's reference speed. The shares of run
     wall time add up to one: match, decide, act, chunk compile, the
     rest of chunk-splice, and the residual outside every phase;
   - one traced serial pass of the canonical instance, whose task events
     are grouped by [Observe.node_kind];
   - two traced sim passes (8 and 13 modeled processes), whose events
     [Attribution.per_cycle] turns into speedup-loss ledgers;
   - Bechamel kernels ([Micro]). *)

open Psme_obs
open Psme_engine
module Telemetry = Psme_obs.Telemetry

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l

(* 0 where a workload has no samples (no chunks on io-stream) *)
let pct xs p = if xs = [||] then 0. else Psme_support.Stats.percentile xs p

(* The tracer of a traced pass is drained after each decision, so it
   only needs to hold one decision's events: at most 1.3 M (cypress at
   13 modeled processes, out of 2.2 M for the run). It is dropped after
   the pass, before the timed loop samples the heap. *)
let trace_capacity = 1 lsl 21

type drained = {
  run : Measure.canonical;
  consume_ns : int;  (** time spent in [consume] during the run *)
  dropped : int;  (** events lost to a full ring before a drain *)
}

let run_traced ~config ~consume (w : Workloads.t) =
  let tr = Trace.create ~capacity:trace_capacity () in
  let consume_ns = ref 0 and dropped = ref 0 in
  let drain agent =
    let t0 = Measure.now_ns () in
    dropped := !dropped + Trace.dropped tr;
    consume agent (Trace.events tr);
    Trace.clear tr;
    consume_ns := !consume_ns + (Measure.now_ns () - t0)
  in
  let run =
    Measure.run_canonical ~monitor:drain ~inspect:drain
      ~config:{ config with Psme_soar.Agent.tracer = Some tr }
      w
  in
  { run; consume_ns = !consume_ns; dropped = !dropped }

(* node kinds as [Observe.node_kind] names them, folded into the layers
   reported; entry and P-node tasks scan no memory *)
let kinds = [ "entry"; "join"; "neg"; "ncc"; "pnode" ]
let scanning_kinds = [ "join"; "neg"; "ncc" ]
let kind_of = function "bjoin" -> "join" | "ncc-partner" -> "ncc" | k -> k

type kind_count = { mutable k_tasks : int; mutable k_scanned : int; mutable k_emitted : int }

type traced = {
  untraced : Measure.canonical;
  traced : drained;
  per_kind : (string * kind_count) list;  (** task-end events by node kind *)
  overhead : float;
      (** traced / untraced wall time - 1, each at the reference speed *)
}

(* The canonical instance once without and once with the tracer: the
   wall-time ratio is the tracer's overhead, the events give the
   per-kind task, scan and emit counts. *)
let traced_pass (w : Workloads.t) =
  let config = Measure.serial_config w in
  let c0 = Calib.sample () in
  let untraced = Measure.run_canonical ~config w in
  let c1 = Calib.sample () in
  let counts = List.map (fun k -> (k, { k_tasks = 0; k_scanned = 0; k_emitted = 0 })) ("?" :: kinds) in
  let consume agent events =
    let net = Psme_soar.Agent.network agent in
    Array.iter
      (fun (e : Trace.event) ->
        if e.Trace.kind = Trace.Task_end then begin
          let c =
            match List.assoc_opt (kind_of (Psme_harness.Observe.node_kind net e.Trace.node)) counts with
            | Some c -> c
            | None -> List.assoc "?" counts
          in
          c.k_tasks <- c.k_tasks + 1;
          c.k_scanned <- c.k_scanned + e.Trace.scanned;
          c.k_emitted <- c.k_emitted + e.Trace.emitted
        end)
      events
  in
  let traced = run_traced ~config ~consume w in
  let c2 = Calib.sample () in
  {
    untraced;
    traced;
    per_kind = counts;
    overhead =
      (fi (traced.run.Measure.wall_ns - traced.consume_ns) /. sqrt (c1 *. c2))
      /. (fi untraced.Measure.wall_ns /. sqrt (c0 *. c1))
      -. 1.;
  }

type sim_pass = { sim : drained; ledgers : Attribution.ledger list }

(* A traced sim pass. [chrome] names a file for the Chrome trace of its
   first [chrome_events] events, with the speedup-loss ledgers as a
   counter track. *)
let chrome_events = 1 lsl 19

let sim_traced ?chrome ~procs (w : Workloads.t) =
  let ledgers = ref [] and kept = ref [] and n_kept = ref 0 and net = ref None in
  let consume agent events =
    let cost = (Psme_soar.Agent.config agent).Psme_soar.Agent.cost in
    ledgers :=
      List.rev_append
        (Attribution.per_cycle ~procs ~queue_op_us:cost.Cost.queue_op_us events)
        !ledgers;
    net := Some (Psme_soar.Agent.network agent);
    if chrome <> None && !n_kept < chrome_events then begin
      kept := events :: !kept;
      n_kept := !n_kept + Array.length events
    end
  in
  let sim = run_traced ~config:(Measure.sim_config ~procs w) ~consume w in
  let ledgers = List.rev !ledgers in
  (match (chrome, !net) with
  | Some path, Some net ->
    let events = Array.concat (List.rev !kept) in
    let last = Array.fold_left (fun a e -> max a e.Trace.cycle) (-1) events in
    let buf = Buffer.create (1 lsl 20) in
    Psme_harness.Observe.chrome_trace
      ~ledgers:(List.filter (fun l -> l.Attribution.a_cycle <= last) ledgers)
      net buf events;
    let oc = open_out path in
    Buffer.output_buffer oc buf;
    close_out oc
  | _ -> ());
  { sim; ledgers }

(* Metric rows: name, unit, value. *)
let metrics ~(loop : Measure.loop) ~(traced : traced) ~(sim8 : sim_pass)
    ~(sim13 : sim_pass) ~micro =
  let ops = Measure.all_ops loop in
  let scaled f = sumf (fun o -> fi (f o) *. o.Measure.scale) ops in
  let wall = scaled (fun o -> o.Measure.run_ns) in
  let cycles = fi (sum (fun o -> o.Measure.cycles) ops) in
  let decisions = fi (sum (fun o -> o.Measure.decisions) ops) in
  let phase p =
    let i = Measure.phase_index p in
    ( scaled (fun o -> o.Measure.phases.Measure.ph_ns.(i)),
      sumf (fun o -> o.Measure.phases.Measure.ph_words.(i)) ops )
  in
  let match_ns, match_words = phase Telemetry.Match in
  let decide_ns, decide_words = phase Telemetry.Conflict_resolution in
  let act_ns, act_words = phase Telemetry.Act in
  let splice_ns, splice_words = phase Telemetry.Chunk_splice in
  let tasks = fi (sum (fun o -> o.Measure.match_tasks + o.Measure.update_tasks) ops) in
  let scaled_us f =
    Array.concat
      (List.map (fun o -> Array.map (fun ns -> fi ns *. o.Measure.scale /. 1e3) (f o)) ops)
  in
  let cycle_us = scaled_us (fun o -> o.Measure.cycle_wall_ns) in
  let compile_us = scaled_us (fun o -> o.Measure.chunk_compile_ns) in
  let chunks = fi (sum (fun o -> o.Measure.chunks) ops) in
  let compile_ns = Array.fold_left ( +. ) 0. compile_us *. 1e3 in
  let batches = fi (sum (fun o -> o.Measure.update_batches) ops) in
  let update_ns = scaled (fun o -> o.Measure.update_wall_ns) in
  let canon_cycles = fi traced.traced.run.Measure.elab_cycles in
  let per_kind =
    List.concat_map
      (fun k ->
        let c = List.assoc k traced.per_kind in
        let t = fi c.k_tasks and sc = fi c.k_scanned in
        let pre = "rete." ^ k in
        (pre ^ ".tasks_per_cycle", "count", div t canon_cycles)
        ::
        (if List.mem k scanning_kinds then
           [
             (pre ^ ".scanned_per_task", "count", div sc t);
             (pre ^ ".emitted_per_scanned", "fraction", div (fi c.k_emitted) sc);
           ]
         else []))
      kinds
  in
  let ledger_rows procs (s : sim_pass) =
    let t = Attribution.totals s.ledgers in
    let share v = div v t.Attribution.t_ideal_us in
    let pre = Printf.sprintf "sim.p%d." procs in
    [
      (pre ^ "cp_residual_share", "fraction", share t.Attribution.t_cp_residual_us);
      (pre ^ "queue_share", "fraction", share t.Attribution.t_queue_us);
      (pre ^ "lock_share", "fraction", share t.Attribution.t_lock_us);
      (pre ^ "imbalance_share", "fraction", share t.Attribution.t_imbalance_us);
    ]
  in
  let t13 = sim13.sim.run.Measure.totals in
  let t8 = sim8.sim.run.Measure.totals in
  List.concat
    [
      [
        ("engine.match_share", "fraction", div match_ns wall);
        ("engine.us_per_task", "us", div (match_ns /. 1e3) tasks);
        ("engine.tasks_per_cycle", "count", div tasks cycles);
        ("engine.cycle_p50_us", "us", Psme_support.Stats.percentile cycle_us 50.);
        ("engine.cycle_p90_us", "us", Psme_support.Stats.percentile cycle_us 90.);
        ("engine.minor_words_per_cycle", "words", div match_words cycles);
        ( "rete.alpha.activations_per_cycle",
          "count",
          div (fi (sum (fun o -> o.Measure.alpha_activations) ops)) cycles );
      ];
      per_kind;
      List.map (fun (name, ns) -> (name, "ns", ns)) micro;
      [
        ("rete.build.chunk_compile_p50_us", "us", pct compile_us 50.);
        ("rete.build.chunk_compile_p90_us", "us", pct compile_us 90.);
        ("rete.build.chunk_compile_share", "fraction", div compile_ns wall);
        ( "rete.build.new_nodes_per_chunk",
          "count",
          div (fi (sum (fun o -> o.Measure.chunk_new_nodes) ops)) chunks );
        ( "rete.update.tasks_per_batch",
          "count",
          div (fi (sum (fun o -> o.Measure.update_tasks) ops)) batches );
        ("rete.update.us_per_batch", "us", div (update_ns /. 1e3) batches);
        ("rete.update.share", "fraction", div update_ns wall);
        ("soar.chunker.chunks_per_op", "count", div chunks (fi (List.length ops)));
        ( "soar.chunker.ces_per_chunk",
          "count",
          div (fi (sum (fun o -> o.Measure.chunk_ces) ops)) chunks );
        ("soar.chunker.us_per_chunk", "us", div ((splice_ns -. compile_ns) /. 1e3) chunks);
        ("soar.chunker.share", "fraction", div (splice_ns -. compile_ns) wall);
        ("soar.chunker.minor_words_per_chunk", "words", div splice_words chunks);
        ("soar.decide.share", "fraction", div decide_ns wall);
        ("soar.decide.us_per_decision", "us", div (decide_ns /. 1e3) decisions);
        ("soar.decide.minor_words_per_decision", "words", div decide_words decisions);
        ("soar.act.share", "fraction", div act_ns wall);
        ("soar.act.us_per_cycle", "us", div (act_ns /. 1e3) cycles);
        ("soar.act.minor_words_per_cycle", "words", div act_words cycles);
        ( "soar.agent.residual_share",
          "fraction",
          1. -. div (match_ns +. decide_ns +. act_ns +. splice_ns) wall );
      ];
      ledger_rows 8 sim8;
      ledger_rows 13 sim13;
      [
        ("sim.p13.queue_spins_per_task", "count", div t13.Cycle.queue_spins (fi t13.Cycle.tasks));
        ( "sim.p13.failed_pops_per_task",
          "count",
          div (fi t13.Cycle.failed_pops) (fi t13.Cycle.tasks) );
        ("sim.modeled_us_per_task", "modeled-us", div t8.Cycle.serial_us (fi t8.Cycle.tasks));
        ("obs.trace_overhead", "fraction", traced.overhead);
        ( "obs.trace_dropped",
          "count",
          fi (traced.traced.dropped + sim8.sim.dropped + sim13.sim.dropped) );
        ( "machine.calib_kernel_us",
          "us",
          Psme_support.Stats.percentile
            (Array.of_list (List.map (fun o -> Calib.reference_ns /. o.Measure.scale /. 1e3) ops))
            50. );
      ];
    ]
