(** Executing node activations.

    [exec] performs one task against the shared match state and returns
    the successor tasks plus the work accounting the simulator's cost
    model charges for. Inserting into a memory and probing the opposite
    memory happen under the entry's line lock, so concurrent executions
    of joinable activations produce each join result exactly once (see
    {!Memory}). Thread-safe: any number of match processes may call
    [exec] concurrently.

    Every activation runs through the node's closure-compiled program
    ({!Program}, the PSM-E machine-code analogue): the jumptable is the
    only dispatch path. *)

open Psme_ops5

type cost_class = Program.cost_class =
  | Entry_task  (** first-CE wme-to-token conversion *)
  | Two_input_task  (** join, negative, NCC, NCC partner or binary join *)
  | Pnode_task  (** conflict-set insertion/removal *)
  | Absorbed_task  (** the task's node was excised while it was queued *)
(** The cost model's class of the node a task ran on. Each compiled
    program stamps its own class on its outcomes, so an engine charges a
    task without looking its node up. *)

type outcome = Program.outcome = {
  children : Task.t array;
      (** successor tasks, in emission order (tokens in production
          order, successors in registration order) *)
  scanned : int;  (** opposite-memory entries scanned under the lock *)
  insts : (Task.flag * Conflict_set.inst) list;
      (** conflict-set transitions performed (P-node activations only) —
          engines running asynchronous elaboration fire these without
          waiting for quiescence (paper §7) *)
  cost_class : cost_class;
  acc_node : int;  (** beta node owning the memory entries touched *)
  acc_line : int;
      (** hash line (lock granule, §6.1) of the task's one line-lock
          section; -1 when it ran none (P-nodes, absorbed tasks) *)
  acc_locked : bool;  (** false only under {!set_lock_elision} *)
}
(** A task performs at most one critical section against the global
    hashed memories, and every section mutates (insert-then-probe).
    Engines forward it to the trace as a [Mem_access] event; the race
    detector replays those against the happens-before order. The access
    rides in immediate fields rather than a record in a list, so
    reporting it allocates nothing. *)

val exec : Network.t -> Task.t -> outcome
(** Dispatches through the node's compiled program (the §5.1
    jumptable). A task addressed to a node excised while it was queued
    finds no program and is absorbed with no effect: its outcome is
    {!Program.absorbed}. *)

val set_lock_elision : bool -> unit
(** Fault injection for the race detector's self-test: when enabled, exec
    critical sections skip the line lock and report their access with
    [acc_locked = false]. Process-wide; reset to [false] after use. *)

val lock_elision : unit -> bool

val seed :
  ?min_node_id:int -> Network.t -> Task.flag -> Wme.t -> (Task.t -> unit) -> int
(** Run the alpha (constant-test) network for one wme change and push
    each right activation it produces, in order (alpha memories in walk
    order, successors in registration order), straight onto the caller's
    queue; returns the number of constant-test node activations
    performed. [min_node_id] filters deliveries to nodes with at least
    that ID — the §5.2 update filter. *)

val seed_wme_change :
  ?min_node_id:int -> Network.t -> Task.flag -> Wme.t -> Task.t list * int
(** {!seed} collected into a list: the right activations in push order,
    plus the number of constant-test node activations performed. *)
