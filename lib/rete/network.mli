(** The Rete network: nodes, their wiring, and the shared match state.

    Node IDs are allocated from a single monotone counter (alpha and
    beta nodes alike), which is the paper's §5.2 invariant: a node added
    later always has a larger ID than every pre-existing node, and once
    a production's chain stops being shared it never becomes shared
    again deeper down. Run-time addition appends nodes and patches
    successor lists — the data-structure analogue of patching the PSM-E
    jumptable. *)

open Psme_support
open Psme_ops5

(** A beta test between a left-token field and a right-wme field. *)
type jtest = {
  l_slot : int;
  l_fld : int;
  rel : Cond.relation;
  r_fld : int;
}

(** A test between fields of two tokens (binary joins). *)
type btest =
  | B_fields of { a_slot : int; a_fld : int; rel : Cond.relation; b_slot : int; b_fld : int }
  | B_same_wme of { a_slot : int; b_slot : int }
      (** the two tokens hold the very same wme in these slots (shared
          context prefix of a bilinear network) *)

type two_input = {
  eq : jtest list;      (** equality tests — they define the hash key *)
  others : jtest list;  (** residual (non-equality) tests *)
}

type binary = {
  b_eq : btest list;
  b_others : btest list;
  right_drop : int;  (** leading right-token slots dropped on concat *)
}

type pinfo = {
  production : Production.t;
  perm : int array option;  (** slot permutation to CE order; [None] = identity *)
  bindings : (string * (int * int)) list;
      (** variable -> (positive-CE index, field) *)
}

type kind =
  | Entry        (** converts a first-CE wme into a 1-token *)
  | Join of two_input
  | Neg of two_input
  | Ncc of { prefix_len : int }
  | Ncc_partner of { ncc : int; prefix_len : int }
  | Bjoin of binary
  | Pnode of pinfo

type port = P_left | P_right

type node = {
  id : int;
  kind : kind;
  parent : int option;     (** main (left) input node *)
  alpha_src : int option;  (** alpha memory feeding the right input *)
  mutable succs : (int * port) array;
      (** successor fan-out in registration order; replaced wholesale
          (never mutated in place) when run-time addition patches the
          wiring, so activation emit and compiled node programs read it
          without locking *)
}

type config = {
  share : bool;          (** reuse structurally identical nodes *)
  bilinear : bool;       (** build constrained bilinear networks (§6.2) *)
  bilinear_ctx : int;    (** context-prefix length (Gr1) *)
  bilinear_group : int;  (** CEs per group *)
  bilinear_min_ces : int;
      (** only restructure productions with at least this many top-level
          positive CEs *)
  lines : int;           (** hash lines in the global memories *)
  reorder_joins : bool;
      (** place positive CEs in the order {!Jcost.suggest} predicts is
          cheapest (negations after all positives); the P-node's slot
          permutation restores CE order, so conflict sets, bindings and
          chunking are unchanged. Productions whose meaning depends on
          written order ({!Production.negates_before_binding}) keep the
          linear build, as they do under [bilinear]. Off by default. *)
}

val default_config : config

type jumptable = ..
(** Dispatch table of compiled node programs, indexed by node ID. The
    concrete constructor lives in [Program]; the network only carries
    the slot (see {!Program.table}). *)

type jumptable += Jt_none

type pmeta = {
  pnode : int;
  meta_production : Production.t;
  chain : int list;          (** beta nodes along this production, root-first *)
  created_nodes : int list;  (** nodes newly created when it was added *)
}

type t = {
  schema : Schema.t;
  config : config;
  counter : int ref;  (** the single monotone node-ID counter *)
  beta : (int, node) Hashtbl.t;
  alpha : Alpha.t;
  mem : Memory.t;
  cs : Conflict_set.t;
  prods : (Sym.t, pmeta) Hashtbl.t;
  mutable prod_order_rev : Sym.t list;
  share_index : (int * int, int list) Hashtbl.t;
      (** (parent id, spec hash) -> candidate child ids; the compiler's
          O(1) share-point lookup (the builder still verifies specs
          structurally, so stale or colliding entries are harmless) *)
  mutable jumptable : jumptable;
}

val create : ?config:config -> Schema.t -> t
val next_id : t -> int
(** The ID the next node will receive; nodes created later always have
    IDs at least this value (used as the update filter's threshold). *)

val alloc_id : t -> int
val add_node :
  t -> kind:kind -> parent:int option -> alpha_src:int option -> node
val node : t -> int -> node
val node_opt : t -> int -> node option

val iter_nodes : t -> (node -> unit) -> unit
(** Visit every beta node, in no particular order (analysis hook). *)

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val successors : node -> (int * port) list
(** In registration order. *)

val successor_array : node -> (int * port) array
(** The fan-out array itself (immutable; do not mutate). The hot path's
    view of {!successors}. *)

val add_successor : t -> of_:int -> node:int -> port:port -> unit
val remove_successor : t -> of_:int -> node:int -> unit

val productions : t -> pmeta list
(** In addition order. *)

val find_production : t -> Sym.t -> pmeta option
val beta_node_count : t -> int
val two_input_node_count : t -> int

val bindings_of : t -> Sym.t -> Token.t -> (string * Value.t) list
(** Variable values of an instantiation of the named production. *)

val binding_value : pinfo -> Token.t -> string -> Value.t
(** Value of one variable; raises [Not_found] for unknown variables. *)
