(** Bridges a compiled Rete network to the observability layer.

    {!Psme_obs} deliberately knows nothing about the Rete
    representation: the profiler and the Chrome-trace exporter take the
    node metadata as plain lookup functions. This module derives those
    functions from a {!Psme_rete.Network.t} — node kinds, human-readable
    node names, and the node → owning-productions map (a shared node is
    owned by every production whose chain passes through it) — and
    folds an engine's history into the profile's metric rows. *)

open Psme_rete
open Psme_obs

val node_kind : Network.t -> int -> string
(** ["entry"], ["join"], ["neg"], ["ncc"], ["ncc-partner"], ["bjoin"],
    ["pnode"]; ["?"] for ids not in the beta network (e.g. alpha
    sources). *)

val node_name : Network.t -> int -> string
(** E.g. ["join#12"]; P-nodes carry the production name,
    ["pnode#40(chunk-1)"]. *)

val node_prods : Network.t -> int -> string list
(** Productions whose chain passes through the node, in addition order.
    Computed once per call site (the table is built eagerly), so hoist
    the partial application out of loops. *)

val profile : Network.t -> Trace.event array -> Profile.t
(** {!Psme_obs.Profile.of_events} with this network's metadata. *)

val chrome_trace :
  ?ledgers:Attribution.ledger list ->
  Network.t ->
  Buffer.t ->
  Trace.event array ->
  unit
(** {!Psme_obs.Chrome_trace.to_buffer} with this network's node names
    (queue events included; [ledgers] adds the attribution counter
    track). *)

val metrics : Psme_engine.Engine.t -> Metrics.snapshot
(** The rows [soar_cli profile] prints under "metrics registry:", folded
    from the engine's history: the sums [engine.cycles], [engine.tasks],
    [engine.failed_pops], [engine.scanned], [engine.emitted] and
    [rete.runtime.alpha_activations]; the [.count], [.total], [.mean],
    [.min] and [.max] of [engine.cycle.serial_us] and
    [engine.cycle.makespan_us] over every cycle and of
    [engine.cycle.speedup_x] over the cycles with tasks (absent when no
    cycle contributes); and {!Psme_obs.Metrics.snapshot}'s probe rows —
    all sorted by name. *)
