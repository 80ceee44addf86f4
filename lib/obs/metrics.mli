(** Metrics probes: named callbacks sampled at snapshot time.

    A subsystem that already keeps its own totals registers a probe
    under a dotted name ("rete.memory.lines"); sampling costs nothing on
    its access paths. Re-registering a name replaces the previous
    callback, so each new network's memories take over the well-known
    names. {b Unit convention}: any metric whose value is not a plain
    count carries its unit as a name suffix — [_us] for microseconds
    (matching the Chrome-trace exporter, whose [ts]/[dur] fields are
    microseconds by spec), [_ns] for nanoseconds, [_words] for heap
    words, [_x] for dimensionless ratios. Bare names are counts.
    {!Psme_obs.Telemetry.snapshot_kv} follows the same convention.

    Per-cycle totals are not kept here: the engine's history is the
    run's one ledger of them, and [soar_cli profile] folds its rows from
    it ([Psme_harness.Observe.metrics]). The memory probes stay because
    their closures keep the most recently created memory reachable, and
    perfbench's [live_heap_mb] subtracts what stays live after an
    operation: releasing them moves that metric, which belongs to a
    change of the benchmark. *)

type t
(** A registry. *)

val global : t
(** The process-wide registry the Rete memories register into. *)

val set_probe : t -> string -> (unit -> float) -> unit
(** Register or replace a callback sampled at snapshot time. *)

type snapshot = (string * float) list
(** Sorted by name. *)

val snapshot : t -> snapshot
(** Every probe sampled now, under its own name. *)

val pp : Format.formatter -> snapshot -> unit
val to_json : snapshot -> string
