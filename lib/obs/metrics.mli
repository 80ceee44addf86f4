(** Metrics registry: named counters, gauges and probes.

    Every subsystem that wants its internals visible registers here
    under a dotted name ("engine.tasks",
    "engine.cycle.makespan_us"). {b Unit convention}: any metric whose
    value is not a plain count carries its unit as a name suffix —
    [_us] for microseconds (matching the Chrome-trace exporter, whose
    [ts]/[dur] fields are microseconds by spec), [_ns] for nanoseconds,
    [_words] for heap words, [_x] for dimensionless ratios. Bare names
    are counts. {!Psme_obs.Telemetry.snapshot_kv} follows the same
    convention.

    Three metric shapes cover the codebase:

    - {e counters} — monotone atomic integers, safe to bump from any
      domain (the real parallel engine increments them from workers);
    - {e gauges} — {!Psme_support.Stats} accumulators fed one
      observation per cycle (count/mean/min/max/total are exported);
    - {e probes} — zero-overhead callbacks sampled only at snapshot
      time, for subsystems that already keep their own totals (the
      line-locked memories). Re-registering a probe name replaces the
      previous callback, so each new network's memories take over the
      well-known names.

    [snapshot] flattens everything to a sorted [(name, value)] list;
    [delta] subtracts two snapshots so a caller can meter one region of
    a run; [pp] and [to_json] render a snapshot for humans and tools. *)

open Psme_support

type t
(** A registry. *)

val create : unit -> t

val global : t
(** The process-wide registry the engines and the Rete register into. *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create the named counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {2 Gauges} *)

val gauge : t -> string -> Stats.t
(** Get or create the named gauge. *)

val observe : t -> string -> float -> unit
(** Add one observation to the named gauge (creates it if needed);
    serialized by the registry lock. *)

(** {2 Probes} *)

val set_probe : t -> string -> (unit -> float) -> unit
(** Register or replace a callback sampled at snapshot time. *)

(** {2 Snapshots} *)

type snapshot = (string * float) list
(** Sorted by name. Counters appear under their own name; a gauge [g]
    appears as [g.count], [g.total], [g.mean], [g.min], [g.max] (the
    last four only when it has observations); probes under their own
    name. *)

val snapshot : t -> snapshot

val delta : before:snapshot -> after:snapshot -> snapshot
(** Pointwise [after - before]; names missing from [before] count as 0.
    Meaningful for counters and totals; min/max/mean deltas are reported
    as-is and are up to the reader. *)

val reset : t -> unit
(** Zero all counters and drop all gauge observations; probes stay. *)

val pp : Format.formatter -> snapshot -> unit
val to_json : snapshot -> string
