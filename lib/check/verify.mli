(** Rete network verifier: structural invariants and state consistency.

    {b Structure} ({!structure}) walks the live network and checks the
    wiring invariants the paper's incremental schemes rely on:

    - every edge (parent link, successor link, alpha feed) points at an
      existing node, and edges are strictly ID-increasing — the §5.2
      monotone-ID soundness condition for the update filter, which also
      makes the graph acyclic by construction (a DFS double-checks);
    - node kinds agree with their wiring (entries have no parent, joins
      and negatives have both a parent and an alpha feed, NCC partners
      name their NCC node, P-nodes terminate chains);
    - every live node has a compiled program in the jumptable, and no
      program slot outlives its node (the jumptable is the only
      dispatch path, so a missing program would drop tasks silently);
    - every node registered under an alpha memory names that memory, and
      vice versa;
    - every P-node is reachable from an entry node and every node feeds
      some P-node (no orphans after add/excise);
    - per-production metadata ([pmeta]) is consistent, and the ID
      counter is ahead of every allocated node.

    {b State} ({!state}) recomputes what the global hashed memories
    (§6.1) should contain: it rebuilds the same production sequence into
    a fresh network (builds are deterministic, so node IDs coincide),
    seeds the given working memory serially, and diffs the two memory
    snapshots entry by entry — reference counts included — plus the two
    conflict sets. A §5.2 update bug (duplicate delivery into a shared
    node, a missed replay) shows up as a refcount or missing-token
    diff. *)

open Psme_ops5
open Psme_rete

val structure : Network.t -> Finding.report
(** [checked] counts beta nodes examined. *)

val state : Network.t -> Wme.t list -> Finding.report
(** [state net wmes] diffs [net]'s match state against a from-scratch
    rebuild seeded with [wmes] (the current working memory). Requires
    quiescence. If the network's production sequence cannot be rebuilt
    deterministically (a production was excised), the diff is skipped
    and a single [rebuild-mismatch] warning is reported. [checked]
    counts memory entries compared. *)

val full : Network.t -> Wme.t list -> Finding.report
(** {!structure} then {!state}, merged. *)
