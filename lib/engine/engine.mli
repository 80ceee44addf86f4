(** Uniform front end over the three match engines.

    The Soar architecture and the experiment harness talk to a match
    engine only through this interface, so a run can be repeated
    serially, on real domains, or on the simulated multiprocessor
    without touching the production system. *)

open Psme_rete

type mode =
  | Serial_mode
  | Parallel_mode of Parallel.config
  | Sim_mode of Sim.config

type t

val create : ?cost:Cost.params -> ?tracer:Psme_obs.Trace.t -> mode -> Network.t -> t
(** With [tracer], every episode is bracketed by cycle begin/end events
    and the underlying engine emits its task/queue/lock events; the
    engine keeps a running virtual clock so consecutive cycles abut on
    one global timeline (the tracer's base is advanced by each cycle's
    makespan). Every episode, whatever the engine, is recorded once in
    {!history}, the run's one ledger of per-cycle stats (the rows of
    [soar_cli profile] are folded from it), and feeds the always-on
    {!Psme_obs.Telemetry} layer (cycle-latency histogram; each episode
    runs inside a [Match] phase section for GC attribution). *)

val network : t -> Network.t
val mode : t -> mode
val tracer : t -> Psme_obs.Trace.t option
val vclock_us : t -> float
(** Virtual time consumed by all recorded episodes so far. *)

val run_changes : t -> (Task.flag * Psme_ops5.Wme.t) list -> Cycle.stats
(** Run one buffered set of wme changes to quiescence; records the cycle
    in the history. Resets the memory tables' per-cycle access counters
    first. *)

val run_tasks : t -> Task.t list -> Cycle.stats
(** Run explicit activations (the §5.2 update phase); recorded in the
    history like a cycle. *)

val run_changes_async :
  t ->
  on_inst:(Conflict_set.inst -> (Task.flag * Psme_ops5.Wme.t) list) ->
  (Task.flag * Psme_ops5.Wme.t) list ->
  Cycle.stats
(** One whole elaboration phase as a single episode: instantiations fire
    through [on_inst] as soon as they match (paper §7's asynchronous
    elaboration). Supported natively by the serial and simulated
    engines; the real-domains engine falls back to barrier-synchronized
    waves (the callback is never re-entered concurrently). *)

val history : t -> Cycle.stats list
(** Per-cycle stats, oldest first. *)

val reset_history : t -> unit
val totals : t -> Cycle.stats
