(** The two global hashed token memories (paper §6.1).

    PSM-E keeps the state of {e all} left memory nodes in one hash table
    and of all right memory nodes in another. The hash key combines (1)
    the values of the variable bindings tested for equality at the
    destination two-input node and (2) that node's unique ID, so tokens
    that could pass the node's equal-variable tests land in the same
    bucket. A {e line} is the pair of corresponding left/right buckets;
    one lock guards a line, which is exactly what makes a two-input
    node's insert-then-probe atomic with respect to the opposite side
    (each joinable pair of activations is serialized by its common line,
    so every join result is produced exactly once).

    Entries are {e reference counted}: within one buffered cycle an add
    wave and a delete wave for the same data may be processed in either
    order on different match processes, so a delete arriving before its
    add leaves a negative entry that the add later annihilates. The
    [`Activated]/[`Deactivated] transitions (refs crossing 1 and 0) are
    the only points where join results are emitted, which makes the
    final match state independent of scheduling.

    Left entries are tokens with a mutable counter (used by negative and
    NCC nodes); right entries are wmes (for joins/negatives) or tokens
    (subnetwork results arriving at NCC partners).

    Internally a bucket is a chain threaded through the line's entries:
    each entry records the position of the next entry with its [(node,
    khash)] key, and a flat per-line table maps the key to its chain's
    first entry. Probes and iterations walk only their own chain
    instead of every entry sharing the line. A chain runs in ascending
    line position, so iteration yields the same entry sequence a full
    line scan would — the serial engine's schedule, and every derived
    measurement, is unchanged. The [scanned] value reported by the
    [*_iter] functions is still the {e line} population (the paper's
    bucket-scan cost that the simulator charges), not the number of
    entries physically visited. *)

open Psme_ops5

type left_entry = {
  l_token : Token.t;
  mutable l_refs : int;
  mutable l_count : int;  (** negative-join result count; 0 for joins *)
}

type right_payload =
  | R_wme of Wme.t
  | R_tok of Token.t

type t

val create : ?lines:int -> unit -> t
(** [lines] defaults to 512 and is rounded up to a power of two. *)

val line_count : t -> int
val line_of : t -> khash:int -> int

val locked : t -> line:int -> (unit -> 'a) -> 'a
(** Run a critical section holding the line lock, counting spins; the
    lock is released on the normal and the exception path. Written over
    {!lock} and {!unlock}. All functions below must be called holding
    the entry's line lock (they do not themselves lock). *)

val lock : t -> line:int -> unit
(** Take the line lock, spinning (and counting spins) while it is
    held — the primitive under {!locked}. A node program runs its
    section inline between [lock] and {!unlock} instead of building a
    closure for {!locked}. *)

val unlock : t -> line:int -> unit

val left_add :
  t -> node:int -> khash:int -> Token.t -> count:int ->
  [ `Activated of left_entry | `Inert ]
(** [`Activated] when the entry's reference count crossed to 1 (the
    caller should probe and emit); [`Inert] when the add annihilated an
    early delete. [count] initializes the negative-join counter on a
    fresh entry. {!left_insert} without the variant. *)

val left_remove :
  t -> node:int -> khash:int -> Token.t -> [ `Deactivated of left_entry | `Inert ]
(** [`Deactivated] when the count crossed to 0 (caller emits deletes);
    [`Inert] records an early delete (tombstone). The deactivated
    entry's [l_token] is the stored copy: the token the add activated,
    which the node's successors extended when they stored theirs. It is
    content-equal to the argument, which on a delete wave is a
    re-derived token; retracting through the stored copy lets every
    later {!Token.equal} stop at the first parent the tokens share.
    {!left_delete} without the variant. *)

val inert : left_entry
(** What {!left_insert} and {!left_delete} return when the change
    crossed no threshold; compare with [==]. *)

val left_insert :
  t -> node:int -> khash:int -> Token.t -> count:int -> left_entry
(** {!left_add}'s primitive: the activated entry, or {!inert}. *)

val left_delete : t -> node:int -> khash:int -> Token.t -> left_entry
(** {!left_remove}'s primitive: the deactivated entry, whose [l_token]
    is the stored copy successors extended, or {!inert}. *)

val left_fold :
  t -> node:int -> khash:int -> stage:('x -> 'test) -> 'x ->
  ('test -> 'acc -> left_entry -> 'acc) -> 'acc -> 'acc
(** [left_fold t ~node ~khash ~stage x step acc] folds [step test] over
    the {e active} (refs >= 1) entries of [node] in the bucket, in line
    order, where [test = stage x]. [stage] runs only when the bucket
    chain is non-empty, so a probe of an empty chain builds nothing.
    Counts one left access. The scan primitive under {!left_iter} and
    the node programs. *)

val left_population : t -> khash:int -> int
(** The population of the line's left side: what the simulator charges
    for a bucket scan. *)

val left_iter : t -> node:int -> khash:int -> (left_entry -> unit) -> int
(** Visit {e active} (refs >= 1) entries of [node] in the bucket, in
    line order; returns the population of the line's left side (the
    comparison count the simulator charges for a bucket scan), even
    though only the [(node, khash)] chain is physically visited.
    {!left_fold} plus {!left_population}. *)

val right_add : t -> node:int -> khash:int -> right_payload -> bool
(** True when the payload became active (probe and emit). *)

val right_remove : t -> node:int -> khash:int -> right_payload -> bool
(** True when the payload became inactive (probe and emit deletes). *)

val right_fold :
  t -> node:int -> khash:int -> stage:('x -> 'test) -> 'x ->
  ('test -> 'acc -> right_payload -> 'acc) -> 'acc -> 'acc
(** {!left_fold} for the right side; counts one right access. *)

val right_population : t -> khash:int -> int

val right_iter : t -> node:int -> khash:int -> (right_payload -> unit) -> int
(** {!left_iter} for the right side. *)

val drop_node : t -> node:int -> unit
(** Remove all entries belonging to a node (excising a production). *)

val iter_node_left : t -> node:int -> (left_entry -> unit) -> unit
(** Visit every active left entry of a node across all lines, taking
    each line's lock. Used when a last-shared node is "specially
    executed" to replay its stored state during a run-time update
    (§5.2). *)

val iter_node_right : t -> node:int -> (right_payload -> unit) -> unit

val fold_left_entries :
  t -> init:'a -> f:('a -> node:int -> khash:int -> left_entry -> 'a) -> 'a
(** Fold over {e every} left entry across all lines — including
    tombstones ([l_refs <= 0]) — taking each line's lock. The state
    verifier's snapshot hook: at quiescence the visible entries are
    exactly the node memories' contents. *)

val fold_right_entries :
  t ->
  init:'a ->
  f:('a -> node:int -> khash:int -> refs:int -> right_payload -> 'a) ->
  'a

(** {2 Instrumentation} *)

val reset_cycle_stats : t -> unit
(** Fold the per-cycle access counters into the histogram and clear them
    (call at each elaboration-cycle boundary, with no access running).
    The counters sit in one int per line, each written under its line's
    lock, so the fold reads no line record. *)

val left_accesses_per_line : t -> int array
(** Left-token accesses per line since the last reset — the quantity of
    Figure 6-2. *)

val access_histogram : t -> (int * int) list
(** Accumulated over all completed cycles, sorted by key: [(k, n)]
    where [n] is the total number of left accesses that landed on lines
    receiving exactly [k] left accesses within their cycle. Units are
    {e accesses}, not distinct tokens or line populations: a line with
    [k] accesses in a cycle contributes [k] to bin [k], so each [n] is a
    multiple of [k] and [sum n = total left accesses] over the
    accumulated cycles. Normalizing [n] by the total gives Figure 6-2's
    "percent of left tokens with [k] accesses to their bucket". *)

val clear_access_histogram : t -> unit

val total_spins : t -> int
(** Lock spins observed since creation (real parallel engine). *)

val total_left_accesses : t -> int
val total_right_accesses : t -> int
(** Left (right) memory accesses since creation. Each line counts its
    own under the line lock that the access already holds; these sum the
    lines, so they are exact once the engines are quiescent. *)
