(* One benchmark invocation on one workload: the passes that produce
   counts run first, in a fixed order from process start (the program's
   counts depend on symbol-intern order), then the timed loop, then the
   Bechamel kernels. *)

open Psme_engine

type row = string * string * float  (** metric name, unit, value *)

type result = {
  workload : Workloads.t;
  attempted : int;
  failures : (string * string) list;  (** operation label, check message *)
  samples : (string * int) list;  (** sample counts behind the metrics *)
  e2e : row list;
  layers : row list;
  loop : Measure.loop;
}

let fi = float_of_int

(* each decision's latency in us, at the reference speed *)
let decision_gaps_us (ops : Measure.op_result list) =
  let gaps = ref [] in
  List.iter
    (fun (o : Measure.op_result) ->
      let prev = ref o.Measure.run_t0 in
      Array.iter
        (fun t ->
          gaps := (fi (t - !prev) *. o.Measure.scale /. 1e3) :: !gaps;
          prev := t)
        o.Measure.decision_stamps)
    ops;
  Array.of_list !gaps

let median xs = Psme_support.Stats.percentile xs 50.

(* Timings are scaled to the calibration kernel's reference speed.
   Throughput takes each operation at the median of its repetitions.
   Heap and allocation come from the first pass, so they repeat exactly
   for a seed however many passes the time budget fits. *)
let e2e_rows ~(loop : Measure.loop) ~speedup8 ~speedup13 =
  let ops = Measure.all_ops loop in
  let typical =
    List.map
      (fun (_, reps) ->
        ( (List.hd reps).Measure.cycles,
          median
            (Array.of_list
               (List.map (fun o -> fi o.Measure.run_ns *. o.Measure.scale) reps)) ))
      (Measure.by_label ops)
  in
  let gaps = decision_gaps_us ops in
  let first = List.hd loop.Measure.passes in
  let heap_words = List.fold_left (fun a o -> max a o.Measure.heap_words) 0 first in
  let minor_words = List.fold_left (fun a o -> a +. o.Measure.minor_words) 0. first in
  let first_cycles = List.fold_left (fun a o -> a + o.Measure.cycles) 0 first in
  [
    ( "cycles_per_s",
      "cycles/s",
      fi (List.fold_left (fun a (c, _) -> a + c) 0 typical)
      /. (List.fold_left (fun a (_, ns) -> a +. ns) 0. typical /. 1e9) );
    ("decision_p50_us", "us", Psme_support.Stats.percentile gaps 50.);
    ("decision_p90_us", "us", Psme_support.Stats.percentile gaps 90.);
    ( "setup_s",
      "s",
      median
        (Array.of_list (List.map (fun o -> fi o.Measure.setup_ns *. o.Measure.scale) ops))
      /. 1e9 );
    ("live_heap_mb", "MB", fi (heap_words * (Sys.word_size / 8)) /. 1048576.);
    ("minor_words_per_cycle", "words", minor_words /. fi first_cycles);
    ("modeled_speedup_8", "x", speedup8);
    ("modeled_speedup_13", "x", speedup13);
  ]

(* [trace_out] names a directory for the 13-process sim's Chrome trace. *)
let run ?(micro_quota = 0.1) ?trace_out ~seed ~seconds ~e2e ~layers (w : Workloads.t) =
  (* the speedups need only the sims' totals; the ledgers need traces *)
  let sim ?chrome procs =
    if layers || Option.is_some trace_out then Layers.sim_traced ?chrome ~procs w
    else
      {
        Layers.sim = { Layers.run = Measure.sim ~procs w; consume_ns = 0; dropped = 0 };
        ledgers = [];
      }
  in
  let sim8 = sim 8 in
  let sim13 =
    sim 13
      ?chrome:
        (Option.map (fun dir -> Filename.concat dir (w.Workloads.name ^ ".sim13.json")) trace_out)
  in
  let traced = if layers then Some (Layers.traced_pass w) else None in
  let loop = Measure.timed_loop ~seed ~seconds w in
  let micro = if layers then Micro.run ~quota:micro_quota else [] in
  let canonical_runs =
    [ sim8.Layers.sim.Layers.run; sim13.Layers.sim.Layers.run ]
    @ match traced with
      | Some t -> [ t.Layers.untraced; t.Layers.traced.Layers.run ]
      | None -> []
  in
  let ops = Measure.all_ops loop in
  let failures =
    List.filter_map
      (fun (o : Measure.op_result) ->
        Option.map (fun e -> (o.Measure.label, e)) o.Measure.error)
      (loop.Measure.warmup :: ops)
    @ List.filter_map
        (fun (c : Measure.canonical) ->
          Option.map (fun e -> ("canonical", e)) c.Measure.verdict)
        canonical_runs
  in
  let speedup (s : Layers.sim_pass) = Cycle.speedup s.Layers.sim.Layers.run.Measure.totals in
  {
    workload = w;
    attempted = 1 + List.length ops + List.length canonical_runs;
    failures;
    samples =
      [
        ("operations", List.length ops);
        ("passes", List.length loop.Measure.passes);
        ("decisions", Array.length (decision_gaps_us ops));
      ];
    e2e =
      (if e2e then e2e_rows ~loop ~speedup8:(speedup sim8) ~speedup13:(speedup sim13) else []);
    layers =
      (match traced with
      | Some traced -> Layers.metrics ~loop ~traced ~sim8 ~sim13 ~micro
      | None -> []);
    loop;
  }
