(** Static production and network analyzer.

    Compile-time analysis over production sets and the built Rete
    network. One rule list (stable names, usable in
    [; analyze: allow <rule> [<subject>]] pragmas), by family:

    {b Schema} — the parser rejects these, so they fire only on
    productions built in code, which is how chunking (§5.1) creates them:

    - [undeclared-class] (error) — a CE or [make] names a class absent
      from the schema;
    - [bad-field] (error) — a field index beyond the class arity.

    {b Satisfiability} — abstract interpretation of condition tests over
    {!Domain}, which folds constants, disjunctions, exclusions and
    mixed-kind ordering bounds together exactly:

    - [unsat-condition] (error) — a positive CE has a field whose test
      conjunction admits no value: the production can never fire;
    - [vacuous-negation] (warning) — a negated CE (or a CE inside an NCC
      group) that can never match: the negation always passes;
    - [unsatisfiable-production] (error) — a positive CE repeated
      verbatim as a top-level negation: its own match always blocks it.

    {b Hygiene}:

    - [unused-variable] (warning) — a variable bound once and never
      consulted again (tests, negations, RHS);
    - [duplicate-ce] (warning) — the same top-level CE twice with the
      same sign;
    - [no-op-modify] (warning) — a [modify] that changes nothing.

    {b Redundancy} — condition-set implication under a variable
    substitution:

    - [shadowed-pair] (warning) — two productions with equivalent LHSs:
      they match exactly the same wme combinations;
    - [subsumed-production] (warning) — every match of this production is
      also a match of a more general one. With a network at hand the
      detail reports the duplicated structure in {!Psme_rete.Codesize}'s
      byte model.

    {b Join cost} — the {!Psme_rete.Jcost} static model:

    - [cross-product-join] (warning) — a join level sharing no variable
      with the conditions before it (one finding per production, with
      the levels' predicted share of the scan work);
    - [join-cost] (warning) — the worst-case token count exceeds the
      quadratic bound;
    - [condition-reorder] (warning) — a dependency-respecting reordering
      cuts the predicted chain cost by ≥ 1.25x (the order the CLI's
      [--reorder] and [Network.config.reorder_joins] apply).

    {b Network} rules (need a built network):

    - [dead-alpha-memory] (error) — an alpha memory whose constant-test
      chain no wme can pass;
    - [dead-node] (error) — a beta node that can never emit a token:
      contradictory join tests, a dead right input, or a dead left
      input (complementing {!Verify.structure}, which flags nodes that
      are structurally orphaned rather than semantically dead). *)

open Psme_ops5
open Psme_rete

val production : Schema.t -> Production.t -> Finding.finding list
(** Per-production rules: schema, satisfiability, hygiene and join
    cost. *)

val subsumes : Production.t -> Production.t -> bool
(** [subsumes p q]: every match of [q] is also a match of [p] — [p] is
    at least as general. Sound but incomplete: structurally identical
    LHSs give [true]; otherwise NCC groups and LHSs over 8 positive CEs
    give [false]. *)

val productions : Schema.t -> Production.t list -> Finding.report
(** Per-production rules plus the pairwise redundancy rules. *)

val network : Network.t -> Finding.report
(** The network rules over every alpha memory and beta node. *)

val static_costs : Production.t list -> (string * float) list
(** Predicted worst-case chain cost per production (model units) — the
    static side of the profiler-correlation validation. *)

val source :
  ?net:Network.t -> Schema.t -> src:string -> Production.t list -> Finding.report
(** [source schema ~src prods]: run every rule over [prods], the
    productions parsed from the program [src] — the network rules only
    when [net] is given — and apply [src]'s [; analyze: allow]
    pragmas. The caller parses [src] once, for the network and for
    this report. *)
