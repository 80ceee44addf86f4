(** Always-on runtime telemetry.

    Distinct from the opt-in tracer ({!Trace}) and profiler
    ({!Profile}): this layer is cheap enough to stay enabled in
    production runs. The record path — histogram adds, counter bumps —
    performs {e zero allocation} (asserted by a test diffing
    [Gc.minor_words] across a burst of records). Phase accounting reads
    minor words from the precise [Gc.minor_words] counter (the
    [Gc.quick_stat] field only syncs at minor collections and reads a
    zero delta over short sections) and promoted and major words from
    [Gc.counters]: all three are the {e calling domain's} words, so a
    section on one domain does not see what other domains allocate.
    Collection counts come from [Gc.quick_stat], re-read only when the
    promoted words moved since the last read. Measurement calls are
    ordered so a section's own window contains no measurement
    allocation; a nested section's measurement overhead is calibrated
    at module load and charged to the parent's child total, so
    attributed words measure the phase rather than the measurement.

    One section costs two [Gc.counters] reads and two clock reads:
    about 155 ns and 20 words on a 2-core x86-64 container with OCaml
    5.1 (two [Gc.quick_stat] reads made it about 2.8 µs and 48 words).
    A section in which a collection promoted words pays one
    [Gc.quick_stat] more, about 1.3 µs and 24 words.

    Three kinds of signal:
    - {b per-phase GC accounting}: minor/promoted/major words,
      collection counts, and a max-pause proxy (longest section that
      saw a collection), attributed exclusively — a nested phase's cost
      is subtracted from its parent;
    - {b latency histograms} ({!Loghist}): cycle time, task time, queue
      dwell time, recorded in nanoseconds, exported in microseconds
      with exact p50/p90/p99/max;
    - {b contention counters}: Chase–Lev deque steal traffic and memory
      line-lock contention, threaded through {!Psme_support.Ws_deque}
      and the rete memories. *)

type phase =
  | Match  (** rete activation propagation (Engine.run_changes / run_tasks) *)
  | Conflict_resolution  (** decision procedure over the conflict set *)
  | Act  (** RHS firing: instantiation, working-memory changes *)
  | Chunk_splice  (** chunk compilation and network splice *)

val phases : phase list
(** All phases, in display order. *)

val phase_name : phase -> string
(** Stable lowercase name: ["match"], ["conflict-resolution"], ["act"],
    ["chunk-splice"]. *)

type t

val create : unit -> t

val global : t
(** Shared instance the engines and CLI record into. *)

(** {2 Phase accounting}

    Sections may nest (chunk-splice runs a nested match); attribution
    is exclusive. Nesting deeper than 8 frames drops the section (and
    counts it in [dropped_sections]). Begin/end must pair on one
    domain. *)

val phase_begin : t -> phase -> unit
val phase_end : t -> phase -> unit

val with_phase : t -> phase -> (unit -> 'a) -> 'a
(** Bracketed {!phase_begin}/{!phase_end}; the end runs on exceptions
    too. *)

(** {2 Record paths — allocation-free} *)

val record_cycle_ns : t -> int -> unit
val record_cycle_us : t -> float -> unit
val record_task_ns : t -> int -> unit
val record_task_us : t -> float -> unit
val record_dwell_ns : t -> int -> unit
val record_dwell_us : t -> float -> unit

val add_steal_attempts : t -> int -> unit
val add_steals : t -> int -> unit
val add_steal_cas_failures : t -> int -> unit
val add_pop_races : t -> int -> unit
val add_queue_pushes : t -> int -> unit
val add_queue_pops : t -> int -> unit
val incr_lock_acquired : t -> unit
val incr_lock_contended : t -> unit
val add_lock_spins : t -> int -> unit

val cycle_hist : t -> Loghist.t
val task_hist : t -> Loghist.t
val dwell_hist : t -> Loghist.t

val reset : t -> unit

(** {2 Snapshots and export} *)

val snapshot_kv : t -> (string * float) list
(** Flat view sorted by name. Names are unit-suffixed ([_us],
    [_words]); unsuffixed names are pure counts. *)

val to_json : t -> Json.t
(** Schema ["psme-telemetry/1"]. Field names are a stable contract
    frozen by an expect-test. *)

val delta_line : before:(string * float) list -> after:(string * float) list -> string
(** One-line rolling delta between two {!snapshot_kv} snapshots:
    counter deltas plus current latency percentiles. Drives
    [soar_cli telemetry --watch]. *)

val pp : Format.formatter -> t -> unit
