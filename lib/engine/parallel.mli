(** The real parallel match engine (OCaml 5 domains).

    Reproduces the PSM-E process structure: P match processes pull node
    activations from shared task queues (one global queue, or one per
    process with scanning/stealing), execute them against the shared
    line-locked memories, and push the successor activations back. A
    cycle ends when the outstanding-task count reaches zero.

    Correctness does not depend on scheduling: every engine must produce
    the same conflict set as {!Serial} (the property tests check this).
    On a single-core container the wall-clock speedup is not meaningful;
    the {!Sim} engine produces the paper's speedup figures. *)

open Psme_rete

type queue_mode =
  | Single_queue  (** one shared mutex-guarded queue *)
  | Multiple_queues
      (** one Chase–Lev deque per process: the owner pushes and pops
          lock-free, idle processes steal the oldest task from their
          neighbours' deques (probing in ring order, as the paper's
          multiple-queue variant scans). A lost steal race counts as a
          failed pop, like a contended [try_lock] did. *)

type config = {
  processes : int;
      (** match processes (not counting the caller); the runs raise
          [Invalid_argument] below 1 *)
  queues : queue_mode;
}

val run_tasks :
  ?cost:Cost.params ->
  ?tracer:Psme_obs.Trace.t ->
  config ->
  Network.t ->
  Task.t list ->
  Cycle.stats
(** With [tracer], workers emit task start/end (wall-clock spans) and
    queue pop/steal/failed-pop events; the tracer's internal mutex
    serializes emission across domains. *)

val run_changes :
  ?cost:Cost.params ->
  ?tracer:Psme_obs.Trace.t ->
  config ->
  Network.t ->
  (Task.flag * Psme_ops5.Wme.t) list ->
  Cycle.stats
