(** One reproduction entry per table and figure of the paper's
    evaluation (§5–§6). Each function runs the workloads it needs (runs
    are cached within the process), returns structured data, and can
    print itself in the same rows/series the paper reports.

    Engine note: speedup figures come from the simulated multiprocessor
    (see {!Psme_engine.Sim}); uniprocessor times are the cost model's
    microseconds over the real task stream. *)

open Psme_support


type chunking_mode =
  | Without  (** learning off (Figures 6-1/6-4, Table 6-1) *)
  | During   (** learning on (Tables 5-1/5-2, Figure 6-9) *)
  | After    (** chunks from a During run preloaded, learning off
                 (Figure 6-10) *)

val procs_axis : int list
(** The paper's X axis: 1..13 match processes. *)

(** A per-task series over the processor axis. *)
type series = {
  s_task : string;
  s_uniproc_s : float;      (** this run's uniprocessor seconds *)
  s_paper_uniproc_s : float;
  s_points : (int * float) list;  (** (match processes, y) *)
}

type speedup_figure = {
  fig_name : string;
  fig_title : string;
  fig_series : series list;
}

val figure_6_1 : unit -> speedup_figure
(** Speedups without chunking, single task queue. *)

val figure_6_2 : unit -> (string * (int * float) list) list
(** Hash-bucket contention: per task, (left-token accesses per bucket
    per cycle, percent of left tokens). *)

val figure_6_3 : unit -> speedup_figure
(** Task-queue contention: y is spins per task, single queue. *)

val figure_6_4 : unit -> speedup_figure
(** Speedups without chunking, multiple task queues. *)

val figure_6_5 : unit -> (int * float) list
(** Eight-Puzzle, 11 processes: (tasks in cycle, cycle speedup). *)

val figure_6_6 : unit -> (float * int) list
(** Tasks-in-system trace of a large, low-speedup Eight-Puzzle cycle. *)

type bilinear_report = {
  bl_production : string;
  bl_ces : int;
  bl_linear_depth : int;    (** beta-chain length, linear network *)
  bl_bilinear_depth : int;  (** same production, constrained bilinear *)
  bl_linear_speedup : float;   (** Strips run at 13 processes *)
  bl_bilinear_speedup : float;
}

val figure_6_8_bilinear : unit -> bilinear_report
(** The §6.2 long-chain remedy, applied to Strips'
    [monitor-strips-state]. *)

val figure_6_9 : unit -> speedup_figure
(** Speedups of the §5.2 state-update phase (during-chunking runs). *)

val figure_6_10 : unit -> speedup_figure
(** Speedups after chunking. *)

val figure_6_11 : unit -> Histogram.t
(** Eight-Puzzle tasks/cycle distribution, without chunking. *)

val figure_6_12 : unit -> Histogram.t
(** Same, after chunking: the mass moves right. *)

type t51_row = {
  r51_task : string;
  r51_task_ces : float;   (** avg CEs of the hand-written productions *)
  r51_chunk_ces : float;  (** avg CEs of the learned chunks *)
  r51_bytes_per_chunk : float;
  r51_bytes_per_two_input : float;
  r51_paper : float * float * float * float;
}

val table_5_1 : unit -> t51_row list

val chunk_compiles :
  ?net_config:Psme_rete.Network.config -> Psme_workloads.Workload.t -> (int * int) list
(** The workload's learned chunks (from its serial learning run), added
    in order to a fresh network built with [net_config] and loaded with
    the workload's own productions: per chunk, the wall-clock ns of its
    {!Psme_rete.Build.add_production} and the bytes of code it generated.
    Each timed addition starts on an empty minor heap, so the time is
    compilation alone, not the collections earlier allocation would
    trigger inside it (which an agent's [ci_compile_ns] includes). *)

type t52_row = {
  r52_task : string;
  r52_chunks : int;
  r52_shared_ms : float;
      (** run-time chunk compilation, sharing on ({!chunk_compiles}) *)
  r52_unshared_ms : float;  (** sharing off *)
  r52_shared_bytes : int;   (** generated code (model), sharing on *)
  r52_unshared_bytes : int;
  r52_paper_chunks : int;
  r52_paper_shared_s : float;
  r52_paper_unshared_s : float;
}

val table_5_2 : unit -> t52_row list

type t61_row = {
  r61_task : string;
  r61_uniproc_s : float;
  r61_tasks : int;
  r61_us_per_task : float;
  r61_paper : float * int * float;
}

val table_6_1 : unit -> t61_row list

(** {2 Beyond the paper: §7 future work, measured} *)

type async_row = {
  a_task : string;
  a_sync_speedup : float;   (** 13 processes, synchronous cycles *)
  a_async_speedup : float;  (** 13 processes, asynchronous elaboration *)
  a_same_outcome : bool;    (** both runs reach the same decision count *)
}

val future_async_elaboration : unit -> async_row list
(** The paper's §7 prediction — firing asynchronously, synchronizing
    only at decisions, should increase parallelism — measured on the
    three tasks. *)

val future_io_rate : unit -> (int * float) list
(** §7's other prediction: input/output raising the rate of wme change
    raises parallelism. Returns (readings per channel per cycle,
    13-process speedup) for the streaming-sensor workload. *)

val print_all : Format.formatter -> unit
(** Run and print every table and figure ([soar_cli report]). *)

val markdown_report : unit -> string
(** The EXPERIMENTS.md body: paper-vs-measured for every entry. *)

val clear_cache : unit -> unit
