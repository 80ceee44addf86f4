(** Closure-compiled node programs — the PSM-E "machine code" analogue.

    PSM-E compiles every Rete node to native code and splices newly
    learned productions into a jumptable at run time (PAPER §4, §5.1).
    The single-core OCaml analogue implemented here compiles each node's
    test sequence ONCE — when the node is built, including nodes added
    by chunking mid-run — into specialized closures:

    - the [jtest]/[btest] chain is fused into one staged predicate that
      extracts the activation-fixed operand's fields once per activation
      and then runs monomorphically over every scanned candidate;
    - khash extraction is specialized to the node's slot/field list and
      constant-folds to the node's seed when the key is empty;
    - successor fan-out reads the node's precomputed array, so emit
      allocates only the task records.

    Compiled programs live in a dispatch table indexed by node ID (the
    jumptable) carried in [Network.t]. It is the only dispatch path:
    every live node has a program, and an excised node's empty slot
    absorbs the tasks still queued for it. *)

(** {2 Outcome of one activation}

    These are the canonical definitions; [Runtime] re-exports them. *)

type cost_class = Entry_task | Two_input_task | Pnode_task | Absorbed_task

type outcome = {
  children : Task.t array;
  scanned : int;
  insts : (Task.flag * Conflict_set.inst) list;
  cost_class : cost_class;
  acc_node : int;
  acc_line : int;
  acc_locked : bool;
}

val absorbed : outcome
(** The outcome of a task whose node has no program: no section, no
    children, cost class [Absorbed_task]. *)

val set_lock_elision : bool -> unit
(** Fault injection for the race detector's self-test. *)

val lock_elision : unit -> bool

(** {2 Compiled programs and the jumptable} *)

type entry
(** One node's compiled program: a handler per live port plus its
    modeled size. *)

type table
(** The dispatch array of compiled programs, indexed by node ID. Grows
    in place (by doubling) as run-time additions append nodes — the
    table record's identity never changes, which is what "splice into
    the jumptable" (§5.1) means here. *)

type Network.jumptable += Table of table

val run : entry -> Task.t -> outcome
val find : Network.t -> int -> entry option
(** [None] for excised nodes. *)

val compile_new : Network.t -> int list -> unit
(** Compile and install programs for newly created nodes. *)

val clear_node : Network.t -> int -> unit
(** Drop an excised node's program, so tasks still queued for the node
    are absorbed. *)

val replay_parent :
  Network.t -> parent:Network.node -> child:int -> port:Network.port -> Task.t list
(** "Specially execute" an existing node: recompute its stored output
    tokens from its memory state and address them to exactly one (new)
    successor — the last-shared-node step of the §5.2 update. Joins are
    recomputed with the node's own khash and staged tests. *)

(** {2 Introspection (Codesize report, Verify, tests)} *)

val table : Network.t -> table option
val table_capacity : table -> int
val compiled_count : Network.t -> int

val node_closures : Network.t -> int -> int
(** Number of closures the node's program compiled to (0 if it has
    none). *)

val node_words : Network.t -> int -> int
(** Modeled heap words of those closures — the compiled-code analogue of
    {!Codesize}'s per-node byte model. *)
