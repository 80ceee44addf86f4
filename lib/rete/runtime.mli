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

type access = Program.access = {
  acc_node : int;   (** beta node owning the memory entries touched *)
  acc_line : int;   (** hash line (lock granule, §6.1) *)
  acc_write : bool; (** every exec section mutates (insert-then-probe) *)
  acc_locked : bool;  (** false only under {!set_lock_elision} *)
}
(** One critical section performed against the global hashed memories.
    Engines forward these to the trace as [Mem_access] events; the race
    detector replays them against the happens-before order. *)

type outcome = Program.outcome = {
  children : Task.t array;
      (** successor tasks, in emission order (tokens in production
          order, successors in registration order) *)
  scanned : int;  (** opposite-memory entries scanned under the lock *)
  matched : int;  (** successful pairings (tokens emitted downstream) *)
  insts : (Task.flag * Conflict_set.inst) list;
      (** conflict-set transitions performed (P-node activations only) —
          engines running asynchronous elaboration fire these without
          waiting for quiescence (paper §7) *)
  accesses : access list;
      (** line-lock sections this task performed (empty for P-nodes) *)
}

val exec : Network.t -> Task.t -> outcome
(** Dispatches through the node's compiled program (the §5.1
    jumptable). A task addressed to a node excised while it was queued
    finds no program and is absorbed with no effect. *)

val set_lock_elision : bool -> unit
(** Fault injection for the race detector's self-test: when enabled, exec
    critical sections skip the line lock and report their accesses with
    [acc_locked = false]. Process-wide; reset to [false] after use. *)

val lock_elision : unit -> bool

val seed_wme_change :
  ?min_node_id:int -> Network.t -> Task.flag -> Wme.t -> Task.t list * int
(** Run the alpha (constant-test) network for one wme change and return
    the right activations it produces, plus the number of constant-test
    node activations performed. [min_node_id] filters deliveries to
    nodes with at least that ID — the §5.2 update filter. *)
