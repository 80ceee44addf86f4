(** The alpha (constant-test) network.

    Wmes are discriminated first on their class, then down shared chains
    of constant tests; each chain may end in an {e alpha memory} whose
    successors are the two-input (or entry) nodes fed on their right
    input. Constant tests are cheap relative to two-input nodes (the
    paper: ~90% of optimized match time is in two-input nodes), so the
    engines run the whole alpha pass for a wme change inline and only
    the resulting right activations become schedulable tasks. *)

open Psme_support
open Psme_ops5

(** Tests that depend only on the candidate wme. [A_same] covers
    intra-CE variable consistency such as [(block ^a <x> ^b <x>)]. *)
type atest =
  | A_const of int * Value.t
  | A_disj of int * Value.t list
  | A_rel of int * Cond.relation * Value.t
  | A_same of int * Cond.relation * int  (** field REL field *)

val atest_holds : atest -> Wme.t -> bool

(** Structural-equality contract: chain sharing in {!add_chain} compares
    tests field-by-field with {!Psme_support.Value.equal} (so [Int 3]
    and [Float 3.] never share a node even though some relations treat
    them as equal magnitudes), and [A_disj] value lists are canonicalized
    — sorted by [Value.compare] and deduplicated — on entry, so
    [<<red blue>>] and [<<blue red>>] produce one shared node. Tests
    containing the same [float] NaN never compare equal and will not
    share. *)

type t

val create : alloc_id:(unit -> int) -> t
(** [alloc_id] draws from the network-wide monotone node-ID counter, so
    alpha nodes obey the paper's incremental-ID scheme too. *)

val add_chain : t -> cls:Sym.t -> atest list -> int
(** [add_chain t ~cls tests] finds or creates the test chain for a CE
    (tests are deduplicated and sorted canonically by the caller;
    [A_disj] value order is additionally canonicalized here) and
    returns the alpha-memory id at its end. Shares every prefix with
    existing chains, comparing tests per the structural-equality
    contract above. *)

val add_successor : t -> amem:int -> node:int -> unit
(** Register a beta node fed by alpha memory [amem]. Keeps the successor
    list free of duplicates. *)

val remove_successor : t -> node:int -> unit
(** Unregister a beta node from every alpha memory (production excise). *)

val matching_successors : t -> Wme.t -> (int array -> unit) -> int
(** Apply the function to the successors (the beta nodes fed on their
    right input, in registration order) of each alpha memory the wme
    reaches; returns the number of constant-test node activations
    performed (for the cost model). [A_const] siblings at each level are
    resolved through a per-level [(field, value)] hash dispatch rather
    than tested one by one, but the activation count still charges every
    sibling of an expanded node and memories are visited in the same
    order as the undispatched depth-first walk. The arrays are shared
    with the memories: do not mutate them. *)

val in_walk_order : t -> int list -> (Sym.t * int list) list
(** The given alpha memories, deduplicated and grouped by class, each
    group in the order {!matching_successors} visits them for a wme of
    that class: depth first, a node's memory before its children's,
    siblings newest first. With {!chain_of} this lets a caller that
    knows which memories it wants reproduce the walk's delivery order
    without running the walk (the §5.2 update). *)

val successors : t -> amem:int -> int list
(** Beta nodes fed by this alpha memory, in registration order. *)

val amems : t -> int list
(** All alpha-memory ids, ascending (analysis hook). *)

val amem_exists : t -> int -> bool

val chain_of : t -> amem:int -> (Sym.t * atest list) option
(** The class and (canonicalized) constant-test chain feeding an alpha
    memory — what a wme must satisfy to reach it. Analysis
    introspection: the static analyzer abstract-interprets this chain to
    find memories no wme can ever reach. *)

val iter_chains : t -> (amem:int -> cls:Sym.t -> tests:atest list -> unit) -> unit
(** {!chain_of} over every alpha memory, in no particular order. *)

val node_count : t -> int
(** Constant-test nodes + alpha memories currently in the network. *)

val stats_activations : t -> int
(** Cumulative constant-test activations of {!matching_successors}, that
    is of wme changes: the §5.2 update filters working memory through
    {!chain_of} and runs no walk. *)
