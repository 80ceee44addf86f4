(** Discrete-event simulation of PSM-E on a P-processor Multimax.

    The container has one CPU, so the paper's speedup curves are
    regenerated by simulation: the {e real} Rete executes (tasks mutate
    the real match state and generate their real successor tasks), but
    each task is scheduled onto one of P virtual match processes and
    charged virtual microseconds from {!Cost}. Task queues are modelled
    as exclusive servers: a push, pop, or failed poll occupies the queue
    for [queue_op_us], so waiting time (reported as spins) and the
    failed-pop interference near the end of a cycle emerge from the
    schedule rather than being assumed. The dependence structure that
    limits speedup — long chains, small cycles, the tail-end effect —
    is the actual Rete task graph's.

    Determinism: ties are broken by event insertion order; a fixed seed
    of tasks always yields the same schedule. *)

open Psme_rete

type config = {
  procs : int;
      (** virtual match processes; the runs raise [Invalid_argument]
          below 1 *)
  queues : Parallel.queue_mode;
  collect_trace : bool;  (** record (time, tasks-in-system) samples *)
}

val run_tasks :
  ?cost:Cost.params ->
  ?tracer:Psme_obs.Trace.t ->
  config ->
  Network.t ->
  Task.t list ->
  Cycle.stats
(** With [tracer], every scheduling transition is emitted as a typed
    event at its virtual time: task start/end (with node, task serial
    number and spawning parent), queue push/pop/steal/failed-pop, and
    queue-server waits as lock-wait spans — the material for the
    Chrome-trace timeline, the per-node profiler and the critical-path
    analyzer. *)

val run_changes :
  ?cost:Cost.params ->
  ?tracer:Psme_obs.Trace.t ->
  config ->
  Network.t ->
  (Task.flag * Psme_ops5.Wme.t) list ->
  Cycle.stats

val run_changes_async :
  ?cost:Cost.params ->
  ?tracer:Psme_obs.Trace.t ->
  config ->
  Network.t ->
  on_inst:(Conflict_set.inst -> (Task.flag * Psme_ops5.Wme.t) list) ->
  (Task.flag * Psme_ops5.Wme.t) list ->
  Cycle.stats
(** Asynchronous elaboration (paper §7): when a P-node activation adds
    an instantiation, the virtual control process fires it [fire_us]
    later and injects the resulting wme changes into the same episode —
    elaboration waves overlap instead of running as barrier-separated
    cycles. The callback's changes must be additions (Soar productions
    only add wmes). *)
