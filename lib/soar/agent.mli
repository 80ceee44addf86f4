(** The Soar architecture: elaborate–decide loop, impasses, subgoals,
    and chunking, driving a PSM-E match engine.

    Faithful to the paper's production-system modifications (§3):
    productions only add wmes; all instantiations in the conflict set
    fire in parallel within an elaboration cycle; elaboration repeats to
    quiescence before a decision; chunks are built when a subgoal
    creates a result in a supergoal, compiled into the network at the
    end of the elaboration cycle, and their memory-node state is updated
    from the current working memory (§5).

    Documented simplifications (see DESIGN.md): no i-support truth
    maintenance (wmes persist until their goal is garbage-collected or a
    slot decision consumes them); impasses arise from ties (the
    mechanism the paper's measured tasks exercise); negated conditions
    are not backtraced into chunks. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine

type config = {
  learning : bool;
  max_decisions : int;
  max_elab_cycles : int;  (** per elaboration phase, runaway guard *)
  engine_mode : Engine.mode;
  net_config : Network.config;
  cost : Cost.params;
  trace : bool;  (** log decisions and firings via [Logs] *)
  async_elaboration : bool;
      (** the paper's §7 proposal: fire instantiations as soon as they
          match and synchronize only at decisions, so an elaboration
          phase runs as one continuous episode (more parallelism in the
          small-cycle regime) *)
  tracer : Psme_obs.Trace.t option;
      (** structured event tracing: handed to the engine (task, queue
          and cycle events on one virtual timeline) and fed chunk
          add/update markers by the architecture *)
}

val default_config : config

(** Everything measured about one installed chunk (Tables 5-1/5-2,
    Figure 6-9). *)
type chunk_info = {
  ci_prod : Production.t;
  ci_ces : int;             (** condition elements in the chunk *)
  ci_bytes : int;           (** code-size model, §5.1 *)
  ci_bytes_per_two_input : float;  (** [nan] if no two-input node was created *)
  ci_compile_ns : int;      (** wall time of the run-time compilation *)
  ci_new_nodes : int;
}

type run_summary = {
  decisions : int;
  elab_cycles : int;
  halted : bool;            (** a production executed [(halt)] *)
  stalled : bool;           (** quiescent with nothing to decide *)
  chunks : chunk_info list;
  match_stats : Cycle.stats list;   (** one per elaboration cycle *)
  update_stats : Cycle.stats list;  (** one per chunk-installation batch
                                        (each quiescence point's chunks
                                        are updated together, §5.2) *)
  output : string list;             (** [(write ...)] actions *)
}

type t

val prepare_schema : Schema.t -> unit
(** Declare the architecture's classes ([preference], the [goal]
    triple). Must run before task sources are parsed; {!create} also
    applies it. *)

val create : ?config:config -> Schema.t -> Production.t list -> t
(** The schema gains the [preference] class and a [goal] triple class.
    All productions are compiled before the run; chunks join them at
    run time. *)

val config : t -> config
val schema : t -> Schema.t
val network : t -> Network.t
val engine : t -> Engine.t
val wm : t -> Wm.t
val top_goal : t -> Sym.t
val goal_depth : t -> int
(** Current context-stack depth. *)

val new_id : t -> string -> Sym.t
(** Mint an identifier attached to the top goal (for initial state
    construction). *)

val add_triple : t -> cls:string -> id:Sym.t -> attr:string -> value:Value.t -> unit
(** Buffer an object augmentation (processed by the next elaboration
    cycle). The class is declared as a triple class if new. *)

val set_input : t -> (int -> (string * Sym.t * string * Value.t) list) -> unit
(** Attach an input function (the paper's §7 I/O module): before each
    decision cycle it is called with the cycle number and its
    [(class, id, attribute, value)] augmentations are added to working
    memory — external sensor input raising the rate of wme change. With
    an input attached, a quiescent cycle with nothing to decide waits
    for input instead of stalling; the run ends at the decision limit or
    a [(halt)]. *)

val set_monitor : t -> (int -> unit) -> unit
(** Attach a per-decision callback: after every decision cycle it is
    called with the running decision count. Drives the CLI's telemetry
    watch mode (rolling delta lines during long runs). *)

val run : t -> run_summary
(** Run decision cycles until halt, stall, or the decision limit. May be
    called again to continue (e.g. after adding more wmes). *)

val learned_productions : t -> Production.t list
(** Chunks built so far (for after-chunking runs). *)

val flush_match : t -> unit
(** Push any wme changes still buffered at the end of a run (a [(halt)]
    action exits mid-phase) through the match engine without firing
    productions, so the network state agrees with {!wm} again. Needed
    before diffing network memories against working memory. *)

val slot : t -> goal:Sym.t -> role:string -> Value.t option
(** Current value of a context slot, if decided. [role] is one of
    ["problem-space"], ["state"] and ["operator"]; for any other role the
    answer is [None]. Reads the decision index, which every working
    memory add and remove keeps current, so it costs no scan. *)
