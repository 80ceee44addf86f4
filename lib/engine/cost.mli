(** The simulated-multiprocessor cost model.

    Times are microseconds on the paper's reference processor (an
    NS32032 at ~0.75 MIPS; Table 6-1 reports tasks averaging ~400 µs,
    ranging 200–800 µs). A task's cost is a base amount for its node
    kind plus per-entry-scanned and per-child-generated increments, so
    cost scales with the real work the activation performed. Queue
    parameters drive the contention behaviour of Figures 6-1/6-3/6-4. *)

type params = {
  two_input_base_us : float;  (** join/negative/NCC/binary activation body *)
  entry_base_us : float;      (** first-CE wme-to-token conversion *)
  pnode_base_us : float;      (** conflict-set insertion/removal *)
  per_scan_us : float;        (** per opposite-memory entry scanned *)
  per_child_us : float;       (** per successor task generated *)
  alpha_act_us : float;       (** per constant-test node activation *)
  queue_op_us : float;        (** exclusive queue access (push/pop/steal) *)
  poll_us : float;            (** idle re-poll interval (failed pops) *)
  spin_unit_us : float;       (** one spin on a contended lock *)
  cycle_overhead_us : float;  (** fixed per-cycle cost (synchronization,
                                  informing the control process) *)
  fire_us : float;  (** control-process cost of firing one instantiation
                        during asynchronous elaboration (§7) *)
}

val default : params

val task_cost : params -> Psme_rete.Runtime.outcome -> float
(** Cost in µs of one executed activation: the base of the outcome's
    cost class plus its scan and child increments. An absorbed task (its
    node was excised while it was queued) ran no program, scanned
    nothing and emitted nothing, so it is charged 0 µs; the simulator
    still charges the queue operation that popped it. *)

type charge = { mutable task_us : float }

val charge : params -> Psme_rete.Runtime.outcome -> charge -> unit
(** Store {!task_cost} in [task_us]. A float returned from another
    module arrives boxed, two words per task; a record of floats holds
    it unboxed, so the serial engine's task loop allocates nothing for
    the charge. *)
