(* The static-analyzer suite: the value domain, the per-production
   rules (schema, satisfiability, hygiene), condition-set subsumption,
   the join-cost model, the network rules, pragmas and the JSON report.
   The same philosophy as Test_check: every rule is shown both silent
   on clean input and loud on a planted defect, the planted defects
   being the ones shipped (suppressed) in programs/analyze.ops5. The
   cost model is validated the only way a static model can be — by
   rank correlation against the profiler's measured scan counts. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine
open Psme_check

let parse schema src = Parser.parse_production schema src

let rules findings = List.map (fun f -> f.Finding.rule) findings |> List.sort_uniq compare

let has_rule ?subject rule findings =
  List.exists
    (fun f ->
      f.Finding.rule = rule
      && match subject with None -> true | Some s -> f.Finding.subject = s)
    findings

(* --- the value domain --------------------------------------------------------- *)

let gt n = Cond.T_rel (Cond.Gt, Cond.Oconst (Value.Int n))
let lt n = Cond.T_rel (Cond.Lt, Cond.Oconst (Value.Int n))

let test_domain_emptiness () =
  (* the fixture's planted conflict: an ordering bound against a
     disjunction, which neither test alone makes empty *)
  let d = Domain.of_tests [ gt 5; Cond.T_disj [ Value.Int 1; Value.Int 2; Value.Int 3 ] ] in
  Alcotest.(check bool) "bound vs disjunction" true (Domain.is_empty d);
  Alcotest.(check bool) "empty interval" true
    (Domain.is_empty (Domain.of_tests [ gt 5; lt 2 ]));
  Alcotest.(check bool) "point interval lives" false
    (Domain.is_empty
       (Domain.of_tests
          [
            Cond.T_rel (Cond.Ge, Cond.Oconst (Value.Int 2));
            Cond.T_rel (Cond.Le, Cond.Oconst (Value.Int 2));
          ]));
  Alcotest.(check bool) "constant against matching bound" false
    (Domain.is_empty (Domain.of_tests [ Cond.T_const (Value.Int 7); gt 5 ]));
  Alcotest.(check bool) "constant against failing bound" true
    (Domain.is_empty (Domain.of_tests [ Cond.T_const (Value.Int 3); gt 5 ]));
  Alcotest.(check bool) "top is not empty" false (Domain.is_empty Domain.top);
  Alcotest.(check bool) "bottom is empty" true (Domain.is_empty Domain.bottom)

let test_domain_membership () =
  let d =
    Domain.of_tests
      [
        Cond.T_disj [ Value.sym "red"; Value.sym "blue" ];
        Cond.T_rel (Cond.Ne, Cond.Oconst (Value.sym "red"));
      ]
  in
  Alcotest.(check bool) "survivor of disj minus exclusion" true
    (Domain.mem d (Value.sym "blue"));
  Alcotest.(check bool) "excluded member gone" false (Domain.mem d (Value.sym "red"));
  Alcotest.(check bool) "never a member" false (Domain.mem d (Value.sym "green"))

let test_domain_leq () =
  let point = Domain.of_tests [ Cond.T_const (Value.Int 3) ] in
  let above2 = Domain.of_tests [ gt 2 ] in
  Alcotest.(check bool) "{3} under (> 2)" true (Domain.leq point above2);
  Alcotest.(check bool) "(> 2) not under {3}" false (Domain.leq above2 point);
  Alcotest.(check bool) "bottom under everything" true (Domain.leq Domain.bottom point);
  Alcotest.(check bool) "everything under top" true (Domain.leq above2 Domain.top);
  Alcotest.(check bool) "tighter interval under looser" true
    (Domain.leq (Domain.of_tests [ gt 4; lt 6 ]) (Domain.of_tests [ gt 2 ]));
  Alcotest.(check bool) "looser not under tighter" false
    (Domain.leq (Domain.of_tests [ gt 2 ]) (Domain.of_tests [ gt 4 ]))

(* --- per-production rules ------------------------------------------------------ *)

let blocks_schema = Test_check.blocks_schema

let test_unsat_condition () =
  let schema = blocks_schema () in
  let p = parse schema "(p u (block ^state { > 5 << 1 2 3 >> }) --> (write ok))" in
  Alcotest.(check bool) "unsat positive CE is an error" true
    (has_rule "unsat-condition" ~subject:"u" (Analyze.production schema p));
  let ok = parse schema "(p ok (block ^state { > 5 << 4 6 7 >> }) --> (write ok))" in
  Alcotest.(check bool) "satisfiable disjunction is clean" false
    (has_rule "unsat-condition" (Analyze.production schema ok))

let test_vacuous_negation () =
  let schema = blocks_schema () in
  let p =
    parse schema "(p v (block ^name <x>) -(block ^state { > 5 < 2 }) --> (write ok))"
  in
  let fs = Analyze.production schema p in
  Alcotest.(check bool) "impossible negation is vacuous" true
    (has_rule "vacuous-negation" ~subject:"v" fs);
  Alcotest.(check bool) "but not production-killing" false (has_rule "unsat-condition" fs);
  Alcotest.(check int) "and no error at all" 0 (Finding.errors (Finding.report fs))

let src_report src =
  let schema = blocks_schema () in
  Analyze.source schema ~src (Parser.productions schema src)

let test_clean_production () =
  let r =
    src_report "(p ok (block ^name <x> ^color blue) -(block ^on <x>) --> (write <x>))"
  in
  Alcotest.(check (list string)) "no findings" [] (rules r.Finding.findings)

(* The parser rejects unknown classes and same-field constant clashes at
   parse time, so those rules only matter for productions built in code —
   which is exactly how chunking creates them. *)
let raw_prod ?(name = "bad") lhs =
  Production.make ~name:(Sym.intern name) ~lhs ~rhs:[ Action.Halt ] ()

let prod_rules schema p = rules (Analyze.production schema p)

let test_undeclared () =
  let schema = blocks_schema () in
  let widget = { Cond.cls = Sym.intern "widget"; tests = [] } in
  Alcotest.(check (list string)) "undeclared class" [ "undeclared-class" ]
    (prod_rules schema (raw_prod [ Cond.Pos widget ]));
  let bad_field =
    { Cond.cls = Sym.intern "block"; tests = [ (9, Cond.T_const (Value.sym "x")) ] }
  in
  Alcotest.(check (list string)) "unknown field" [ "bad-field" ]
    (prod_rules schema (raw_prod [ Cond.Pos bad_field ]))

let test_unsatisfiable_ce () =
  let schema = blocks_schema () in
  let clash =
    {
      Cond.cls = Sym.intern "block";
      tests =
        [
          (1, Cond.T_const (Value.sym "red")); (1, Cond.T_const (Value.sym "blue"));
        ];
    }
  in
  Alcotest.(check bool) "constant clash" true
    (List.mem "unsat-condition" (prod_rules schema (raw_prod [ Cond.Pos clash ])));
  let fires src = rules (src_report src).Finding.findings in
  Alcotest.(check bool) "empty numeric interval" true
    (List.mem "unsat-condition"
       (fires "(p bad (block ^state { > 5 < 2 }) --> (write ok))"));
  (* a non-strict bound tightening after a strict one keeps the point 3 *)
  Alcotest.(check (list string)) "point interval after a strict bound" []
    (fires "(p ok (block ^state { < 5 <= 3 >= 3 }) --> (write ok))");
  Alcotest.(check bool) "strict bound empties the point" true
    (List.mem "unsat-condition"
       (fires "(p bad (block ^state { < 5 <= 3 > 3 }) --> (write ok))"))

let test_never_fires () =
  let r = src_report "(p bad (block ^color red) -(block ^color red) --> (write ok))" in
  Alcotest.(check bool) "positive CE also negated" true
    (has_rule "unsatisfiable-production" ~subject:"bad" r.Finding.findings)

let test_unused_and_duplicates () =
  let r =
    src_report
      "(p a (block ^name <x> ^on <y>) --> (write <x>))\n\
       (p b (block ^color red) (block ^color red) --> (write ok))"
  in
  let fs = r.Finding.findings in
  Alcotest.(check bool) "unused variable" true (has_rule "unused-variable" ~subject:"a" fs);
  Alcotest.(check bool) "duplicate CE" true (has_rule "duplicate-ce" ~subject:"b" fs)

let test_pragma_suppression () =
  let src =
    "; analyze: allow unused-variable a  -- the reason\n\
     (p a (block ^name <x> ^on <y>) --> (write <x>))"
  in
  let r = src_report src in
  Alcotest.(check (list string)) "finding suppressed" [] (rules r.Finding.findings);
  Alcotest.(check int) "suppression counted" 1 r.Finding.suppressed;
  Alcotest.(check (list (pair string (option string))))
    "pragma parsed"
    [ ("unused-variable", Some "a") ]
    (Finding.pragmas_of_source src)

let test_subsumes_direction () =
  let schema = blocks_schema () in
  let gen = parse schema "(p gen (block ^color red) --> (write ok))" in
  let spec =
    parse schema "(p spec (block ^name <x> ^color red ^on <y>) --> (write ok))"
  in
  Alcotest.(check bool) "general subsumes specific" true (Analyze.subsumes gen spec);
  Alcotest.(check bool) "specific does not subsume general" false
    (Analyze.subsumes spec gen);
  (* constant structure: a disjunction covers its members *)
  let disj = parse schema "(p disj (block ^state << 1 2 >>) --> (write ok))" in
  let one = parse schema "(p one (block ^state 1) --> (write ok))" in
  Alcotest.(check bool) "disjunction covers a member" true (Analyze.subsumes disj one);
  Alcotest.(check bool) "member does not cover the disjunction" false
    (Analyze.subsumes one disj);
  (* negations reverse: the more general negation is the weaker one *)
  let a = parse schema "(p a (block ^name <x>) -(block ^on <x>) --> (write ok))" in
  let b =
    parse schema "(p b (block ^name <y> ^color red) -(block ^on <y>) --> (write ok))"
  in
  Alcotest.(check bool) "same negation, fewer positives subsumes" true
    (Analyze.subsumes a b);
  Alcotest.(check bool) "not the other way" false (Analyze.subsumes b a)

let test_shadowed_pair_rules () =
  let schema = blocks_schema () in
  let p = parse schema "(p p1 (block ^name <x> ^on <y>) (block ^name <y>) --> (write ok))" in
  let q = parse schema "(p p2 (block ^name <b>) (block ^name <a> ^on <b>) --> (write ok))" in
  Alcotest.(check bool) "renamed+reordered pair is mutual" true
    (Analyze.subsumes p q && Analyze.subsumes q p);
  let r = Analyze.productions schema [ p; q ] in
  Alcotest.(check bool) "reported once as shadowed-pair" true
    (has_rule "shadowed-pair" ~subject:"p2" r.Finding.findings);
  Alcotest.(check bool) "not also as subsumed-production" false
    (has_rule "subsumed-production" r.Finding.findings)

let test_identical_lhs_shadowed () =
  let schema = blocks_schema () in
  let ncc name =
    parse schema
      (Printf.sprintf
         "(p %s (block ^name <x>) -{(block ^on <x>) (block ^color red)} --> (write %s))"
         name name)
  in
  let wide name =
    let ces =
      List.init 9 (fun i -> Printf.sprintf "(block ^name <b%d> ^on <b%d>)" i (i + 1))
    in
    parse schema
      (Printf.sprintf "(p %s %s --> (write <b0> <b9> %s))" name
         (String.concat " " ces) name)
  in
  let shadowed p q =
    has_rule "shadowed-pair" ~subject:"q"
      (Analyze.productions schema [ p; q ]).Finding.findings
  in
  Alcotest.(check bool) "identical NCC productions" true (shadowed (ncc "p") (ncc "q"));
  Alcotest.(check bool) "identical 9-CE productions" true (shadowed (wide "p") (wide "q"))

(* --- the join-cost model ------------------------------------------------------- *)

let sched_schema () =
  let schema = Schema.create () in
  Schema.declare schema "item" [ "name"; "kind"; "size" ];
  Schema.declare schema "slot" [ "name"; "holds" ];
  Schema.declare schema "order" [ "task"; "target" ];
  schema

let test_jcost_shapes () =
  let schema = sched_schema () in
  let cross =
    parse schema "(p cross (item ^name <a> ^kind crate) (slot ^name <s>) --> (write ok))"
  in
  let ch = Jcost.chain cross in
  Alcotest.(check (list int)) "unlinked second level flagged" [ 1 ] ch.Jcost.ch_cross;
  let linked =
    parse schema
      "(p linked (item ^name <a> ^kind crate) (slot ^name <s> ^holds <a>) --> (write ok))"
  in
  Alcotest.(check (list int)) "variable link clears the flag" []
    (Jcost.chain linked).Jcost.ch_cross;
  Alcotest.(check bool) "variable link cuts the output tokens" true
    ((Jcost.chain linked).Jcost.ch_peak < ch.Jcost.ch_peak);
  let single = parse schema "(p single (item ^name <a>) --> (write ok))" in
  Alcotest.(check bool) "single CE not reorderable" false (Jcost.reorderable single);
  Alcotest.(check bool) "no suggestion for a single CE" true
    (Jcost.suggest_order single = None)

let test_jcost_suggest_selective_first () =
  let schema = sched_schema () in
  let p =
    parse schema
      "(p demo (item ^name <n>) (slot ^name <s> ^holds <n>) (order ^task deliver ^target <n>) --> (write ok))"
  in
  match Jcost.suggest p with
  | None -> Alcotest.fail "expected a cheaper order for the broad-first chain"
  | Some better ->
    Alcotest.(check (array int)) "selective order CE placed first" [| 2; 0; 1 |]
      better.Jcost.ch_order;
    let written = Jcost.chain p in
    Alcotest.(check bool) "suggested order is predicted cheaper" true
      (better.Jcost.ch_cost < written.Jcost.ch_cost);
    (* the suggestion is a permutation replayable through the model *)
    let replay = Jcost.chain_of_order p better.Jcost.ch_order in
    Alcotest.(check (float 1e-9)) "chain_of_order agrees" better.Jcost.ch_cost
      replay.Jcost.ch_cost

(* --- the shipped fixture: every planted defect fires ---------------------------- *)

let fixture () =
  let schema = Schema.create () in
  let src = Test_check.read_file "programs/analyze.ops5" in
  let forms = Parser.parse_program schema src in
  let prods =
    List.filter_map (function Parser.Prod p -> Some p | Parser.Literalize _ -> None) forms
  in
  let net = Network.create schema in
  List.iter (fun p -> ignore (Build.add_production net p)) prods;
  (schema, src, prods, net)

let test_fixture_plants () =
  let schema, _, prods, net = fixture () in
  let r = Analyze.productions schema prods in
  let fs = r.Finding.findings in
  Alcotest.(check bool) "planted shadowed pair" true
    (has_rule "shadowed-pair" ~subject:"ship-crate-again" fs);
  Alcotest.(check bool) "planted cross product" true
    (has_rule "cross-product-join" ~subject:"audit-pairs" fs);
  Alcotest.(check bool) "planted unsat condition" true
    (has_rule "unsat-condition" ~subject:"impossible-size" fs);
  Alcotest.(check bool) "planted bad ordering" true
    (has_rule "condition-reorder" ~subject:"reorder-demo" fs);
  let nr = Analyze.network net in
  Alcotest.(check bool) "dead alpha memory behind the unsat CE" true
    (has_rule "dead-alpha-memory" nr.Finding.findings);
  Alcotest.(check bool) "dead beta nodes downstream of it" true
    (has_rule "dead-node" nr.Finding.findings);
  Alcotest.(check bool) "network errors are errors" true (Finding.errors nr > 0)

let test_fixture_suppressed_clean () =
  let schema, src, prods, net = fixture () in
  let r = Analyze.source ~net schema ~src prods in
  Alcotest.(check (list string)) "pragmas silence every plant" [] (rules r.Finding.findings);
  Alcotest.(check bool) "suppressions are counted" true (r.Finding.suppressed >= 6);
  Alcotest.(check int) "gate exit code clean" 0 (Finding.exit_code r)

let test_shipped_programs () =
  (* the gate: every bundled program, built into a network, is clean
     under --strict *)
  let check_file path =
    let schema = Schema.create () in
    Psme_soar.Agent.prepare_schema schema;
    let src = Test_check.read_file path in
    let prods = Parser.productions schema src in
    let net = Network.create schema in
    List.iter (fun p -> ignore (Build.add_production net p)) prods;
    let r = Analyze.source ~net schema ~src prods in
    Alcotest.(check (list string)) (path ^ " findings") [] (rules r.Finding.findings);
    Alcotest.(check int) (path ^ " strict-clean") 0 (Finding.exit_code ~strict:true r)
  in
  List.iter check_file
    [ "programs/blocks.ops5"; "programs/selection.soar"; "programs/analyze.ops5" ]

let test_json_roundtrip () =
  let fs =
    [
      Finding.error ~rule:"unsat-condition" ~subject:"p\"q" "a \\ b\nc \"d\"";
      Finding.warning ~rule:"join-cost" ~subject:"r" "plain";
    ]
  in
  let module J = Psme_obs.Json in
  let j =
    match J.parse (Finding.to_json (Finding.report ~checked:7 ~suppressed:2 fs)) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let str k o = match J.member k o with Some (J.Str s) -> s | _ -> Alcotest.fail k in
  let count k = match J.member k j with Some (J.Int n) -> n | _ -> Alcotest.fail k in
  let finding o =
    (if str "severity" o = "error" then Finding.error else Finding.warning)
      ~rule:(str "rule" o) ~subject:(str "subject" o) (str "detail" o)
  in
  let back =
    match J.member "findings" j with Some (J.List l) -> List.map finding l | _ -> []
  in
  Alcotest.(check bool) "findings survive" true (back = fs);
  Alcotest.(check (list int)) "counts survive" [ 1; 1; 7; 2 ]
    [ count "errors"; count "warnings"; count "checked"; count "suppressed" ]

(* --- network rules under fault injection ---------------------------------------- *)

let test_dead_node_injection () =
  (* hand-build what no honest front end would: an alpha chain requiring
     one field to equal two different constants, feeding an entry node,
     feeding a join whose tests contradict each other *)
  let schema = blocks_schema () in
  let net = Network.create schema in
  let cls = Sym.intern "block" in
  let dead_amem =
    Alpha.add_chain net.Network.alpha ~cls
      [ Alpha.A_const (1, Value.sym "red"); Alpha.A_const (1, Value.sym "blue") ]
  in
  let entry =
    Network.add_node net ~kind:Network.Entry ~parent:None ~alpha_src:(Some dead_amem)
  in
  Alpha.add_successor net.Network.alpha ~amem:dead_amem ~node:entry.Network.id;
  let live_amem = Alpha.add_chain net.Network.alpha ~cls [] in
  let live_entry =
    Network.add_node net ~kind:Network.Entry ~parent:None ~alpha_src:(Some live_amem)
  in
  Alpha.add_successor net.Network.alpha ~amem:live_amem ~node:live_entry.Network.id;
  let contradictory =
    {
      Network.eq = [ { Network.l_slot = 0; l_fld = 0; rel = Cond.Eq; r_fld = 0 } ];
      others = [ { Network.l_slot = 0; l_fld = 0; rel = Cond.Ne; r_fld = 0 } ];
    }
  in
  let join =
    Network.add_node net
      ~kind:(Network.Join contradictory)
      ~parent:(Some live_entry.Network.id) ~alpha_src:(Some live_amem)
  in
  Alpha.add_successor net.Network.alpha ~amem:live_amem ~node:join.Network.id;
  Network.add_successor net ~of_:live_entry.Network.id ~node:join.Network.id
    ~port:Network.P_left;
  (* a healthy join below the dead entry: dead by left-input propagation *)
  let downstream =
    Network.add_node net
      ~kind:(Network.Join { Network.eq = []; others = [] })
      ~parent:(Some entry.Network.id) ~alpha_src:(Some live_amem)
  in
  Alpha.add_successor net.Network.alpha ~amem:live_amem ~node:downstream.Network.id;
  Network.add_successor net ~of_:entry.Network.id ~node:downstream.Network.id
    ~port:Network.P_left;
  let r = Analyze.network net in
  let fs = r.Finding.findings in
  let subj fmt id = Printf.sprintf fmt id in
  Alcotest.(check bool) "unsatisfiable chain flagged" true
    (has_rule "dead-alpha-memory" ~subject:(subj "amem %d" dead_amem) fs);
  Alcotest.(check bool) "entry on the dead memory flagged" true
    (has_rule "dead-node" ~subject:(subj "node %d" entry.Network.id) fs);
  Alcotest.(check bool) "contradictory join flagged" true
    (has_rule "dead-node" ~subject:(subj "node %d" join.Network.id) fs);
  Alcotest.(check bool) "death propagates down the left input" true
    (has_rule "dead-node" ~subject:(subj "node %d" downstream.Network.id) fs);
  Alcotest.(check bool) "the live entry is not flagged" false
    (has_rule "dead-node" ~subject:(subj "node %d" live_entry.Network.id) fs)

(* --- subsumption vs runtime ----------------------------------------------------- *)

let insts net name =
  Conflict_set.to_list net.Network.cs
  |> List.filter (fun i -> Sym.name i.Conflict_set.prod = name)

let test_subsumed_runtime_inclusion () =
  let schema = blocks_schema () in
  let net = Network.create schema in
  let gen = parse schema "(p gen (block ^color red) --> (write ok))" in
  let spec =
    parse schema "(p spec (block ^name <x> ^color red ^on <y>) --> (write ok))"
  in
  Alcotest.(check bool) "analyzer claims subsumption" true (Analyze.subsumes gen spec);
  ignore (Build.add_production net gen);
  ignore (Build.add_production net spec);
  let wm = Wm.create () in
  ignore (Serial.run_changes net (Test_check.adds (Test_check.seed_scene wm)));
  Alcotest.(check bool) "the specific one fires on the scene" true
    (insts net "spec" <> []);
  (* every wme matched by spec is matched by gen (single-CE general side:
     its instantiations are exactly the wmes) *)
  let gen_wmes =
    insts net "gen" |> List.map (fun i -> (Token.wme i.Conflict_set.token 0).Wme.timetag)
  in
  List.iter
    (fun i ->
      let w = Token.wme i.Conflict_set.token 0 in
      Alcotest.(check bool) "spec's block is among gen's" true
        (List.mem w.Wme.timetag gen_wmes))
    (insts net "spec")

let prop_subsumption_runtime =
  QCheck.Test.make ~count:40
    ~name:"analyzer-subsumed pairs are runtime-included on random streams"
    (QCheck.pair Test_props.arb_productions Test_props.arb_history)
    (fun (srcs, history) ->
      let schema = blocks_schema () in
      let net = Network.create schema in
      ignore (Test_props.try_build net schema srcs);
      let prods =
        List.map (fun pm -> pm.Network.meta_production) (Network.productions net)
      in
      let wm = Wm.create () in
      let batches = Test_props.realize wm history in
      List.iter (fun b -> ignore (Serial.run_changes net b)) batches;
      let fired p = insts net (Sym.name p.Production.name) <> [] in
      List.for_all
        (fun p ->
          List.for_all
            (fun q ->
              (not (p != q && Analyze.subsumes p q)) || (not (fired q)) || fired p)
            prods)
        prods)

(* --- join reordering is invisible to the conflict set --------------------------- *)

let sched_wme wm cls vals =
  let fields = Array.of_list vals in
  Wm.add wm ~cls:(Sym.intern cls) ~fields

let sched_scene wm =
  let s = Value.sym in
  [
    sched_wme wm "item" [ s "a"; s "crate"; Value.Int 3 ];
    sched_wme wm "item" [ s "b"; s "crate"; Value.Int 2 ];
    sched_wme wm "item" [ s "c"; s "tool"; Value.Int 3 ];
    sched_wme wm "item" [ s "d"; s "crate"; Value.Int 3 ];
    sched_wme wm "slot" [ s "s1"; s "a" ];
    sched_wme wm "slot" [ s "s2"; s "c" ];
    sched_wme wm "slot" [ s "s3"; s "b" ];
    sched_wme wm "order" [ s "deliver"; s "a" ];
    sched_wme wm "order" [ s "deliver"; s "c" ];
    sched_wme wm "order" [ s "audit"; s "d" ];
    sched_wme wm "order" [ s "audit"; s "a" ];
  ]

let sched_prods =
  [
    "(p deliver (item ^name <n>) (slot ^name <s> ^holds <n>) (order ^task deliver ^target <n>) --> (write ok))";
    "(p stray (item ^name <n> ^kind crate) -(slot ^holds <n>) (order ^task audit ^target <n>) --> (write ok))";
    "(p broad (item ^name <n>) (item ^name <m> ^kind crate ^size 3) --> (write ok))";
  ]

let cs_snapshot net =
  Conflict_set.to_list net.Network.cs
  |> List.map (fun i ->
         ( Sym.name i.Conflict_set.prod,
           Token.wmes i.Conflict_set.token |> Array.to_list
           |> List.map (fun w -> w.Wme.timetag) ))
  |> List.sort compare

let bindings_snapshot net =
  Conflict_set.to_list net.Network.cs
  |> List.map (fun i ->
         ( Sym.name i.Conflict_set.prod,
           (* binding-list order follows first occurrence under the build's
              placement; only the variable->value map is order-invariant *)
           List.sort compare
             (Network.bindings_of net i.Conflict_set.prod i.Conflict_set.token) ))
  |> List.sort compare

let test_reorder_differential () =
  let schema = sched_schema () in
  let plain = Network.create schema in
  let reordered =
    Network.create
      ~config:{ Network.default_config with Network.reorder_joins = true }
      schema
  in
  List.iter
    (fun src ->
      ignore (Build.add_production plain (parse schema src));
      ignore (Build.add_production reordered (parse schema src)))
    sched_prods;
  Alcotest.(check bool) "at least one production is actually reordered" true
    (List.exists
       (fun src -> Jcost.suggest_order (parse schema src) <> None)
       sched_prods);
  Alcotest.(check int) "reordering keeps the verifier silent" 0
    (Finding.errors (Verify.structure reordered));
  let wm = Wm.create () in
  let wmes = sched_scene wm in
  ignore (Serial.run_changes plain (Test_check.adds wmes));
  ignore (Serial.run_changes reordered (Test_check.adds wmes));
  Alcotest.(check bool) "the scene matches at all" true (cs_snapshot plain <> []);
  Alcotest.(check
      (list (pair string (list int))))
    "identical conflict sets, wmes in CE order" (cs_snapshot plain)
    (cs_snapshot reordered);
  Alcotest.(check bool) "identical variable bindings" true
    (bindings_snapshot plain = bindings_snapshot reordered);
  (* deletions must retract the same instantiations through the
     permuted chain (including re-admitting a negation) *)
  let victim = List.nth wmes 4 (* slot s1 holding a *) in
  ignore (Serial.run_changes plain [ (Task.Delete, victim) ]);
  ignore (Serial.run_changes reordered [ (Task.Delete, victim) ]);
  Alcotest.(check
      (list (pair string (list int))))
    "identical after a retraction" (cs_snapshot plain) (cs_snapshot reordered);
  Alcotest.(check bool) "the retraction re-admitted the negation" true
    (List.exists (fun (n, _) -> n = "stray") (cs_snapshot plain))

(* Written-order semantics: a variable a negation mentions before the CE
   that binds it is local to the negation, so [-(slot ^holds <n>)] here
   means "no slot holds anything". Placing the negation after the item
   CE would join on <n> instead; the reordered build keeps such a
   production linear, and both builds agree with the naive oracle. *)
let test_reorder_keeps_negation_locals () =
  let schema = sched_schema () in
  let p =
    parse schema
      "(p late (order ^task audit) -(slot ^holds <n>) (item ^name <n> ^kind crate ^size 3) \
       --> (write ok))"
  in
  Alcotest.(check bool) "the negation mentions <n> before its binding" true
    (Production.negates_before_binding p);
  Alcotest.(check bool) "not reorderable" false (Jcost.reorderable p);
  List.iter
    (fun (build, config) ->
      let net = Network.create ~config schema in
      ignore (Build.add_production net p);
      let wm = Wm.create () in
      let s = Value.sym in
      let wmes =
        [
          sched_wme wm "item" [ s "a"; s "crate"; Value.Int 3 ];
          sched_wme wm "item" [ s "b"; s "crate"; Value.Int 3 ];
          sched_wme wm "slot" [ s "s1"; s "a" ];
          sched_wme wm "order" [ s "audit"; s "d" ];
        ]
      in
      ignore (Serial.run_changes net (Test_check.adds wmes));
      Alcotest.(check (list (pair string (list int))))
        (build ^ ": a slot holds something, so nothing matches") [] (cs_snapshot net);
      Alcotest.(check (list (pair string (list int))))
        (build ^ " = oracle")
        (Test_props.oracle_cs net wm) (cs_snapshot net))
    [
      ("linear", Network.default_config);
      ("reordered", { Network.default_config with Network.reorder_joins = true });
    ]

(* --- codesize accounting after excise ------------------------------------------- *)

let test_codesize_excise () =
  let schema = blocks_schema () in
  let net = Network.create schema in
  let tower =
    parse schema "(p tower (block ^name <a> ^on <b>) (block ^name <b>) --> (write ok))"
  in
  let twin =
    parse schema
      "(p tower-twin (block ^name <a> ^on <b>) (block ^name <b>) --> (write ok))"
  in
  let r1 = Build.add_production net tower in
  let r2 = Build.add_production net twin in
  let before = Codesize.sharing_report net in
  Alcotest.(check int) "both productions accounted" 2
    (List.length before.Codesize.sh_per_production);
  Alcotest.(check bool) "the twin's chain is shared" true (before.Codesize.sh_shared > 0);
  Alcotest.(check bool) "the twin's addition cost something (its P-node)" true
    (Codesize.bytes_of_addition net r2 > 0);
  Build.excise_production net (Sym.intern "tower-twin");
  let after = Codesize.sharing_report net in
  Alcotest.(check (list string)) "excised production owns nothing"
    [ "tower" ]
    (List.map (fun (n, _, _) -> Sym.name n) after.Codesize.sh_per_production);
  Alcotest.(check int) "no node is shared any more" 0 after.Codesize.sh_shared;
  Alcotest.(check int) "the twin's generated code is gone" 0
    (Codesize.bytes_of_addition net r2);
  Alcotest.(check bool) "the survivor's code remains" true
    (Codesize.bytes_of_addition net r1 > 0);
  Alcotest.(check bool) "total bytes shrank" true
    (after.Codesize.sh_bytes < before.Codesize.sh_bytes)

(* --- cost model vs the profiler -------------------------------------------------- *)

(* Spearman rank correlation with average ranks on ties. *)
let ranks xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare arr.(a) arr.(b)) idx;
  let rk = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && arr.(idx.(!j + 1)) = arr.(idx.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j + 2) /. 2. in
    for k = !i to !j do
      rk.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  rk

let spearman xs ys =
  let rx = ranks xs and ry = ranks ys in
  let n = Array.length rx in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
  let mx = mean rx and my = mean ry in
  let num = ref 0. and dx = ref 0. and dy = ref 0. in
  Array.iteri
    (fun i x ->
      let a = x -. mx and b = ry.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b))
    rx;
  if !dx = 0. || !dy = 0. then 0. else !num /. sqrt (!dx *. !dy)

let profiled_correlation w =
  let open Psme_soar in
  let tracer = Psme_obs.Trace.create () in
  let engine_mode =
    Engine.Sim_mode { Sim.procs = 4; queues = Parallel.Multiple_queues; collect_trace = false }
  in
  let config =
    { Agent.default_config with Agent.learning = false; engine_mode; tracer = Some tracer }
  in
  let agent = w.Psme_workloads.Workload.make ~config () in
  ignore (Agent.run agent);
  let net = Agent.network agent in
  let prof = Psme_harness.Observe.profile net (Psme_obs.Trace.events tracer) in
  let prods =
    List.map (fun pm -> pm.Network.meta_production) (Network.productions net)
  in
  let costs = Analyze.static_costs prods in
  (* rank only the productions the run exercised: a production that never
     received a token has no measured cost to rank against *)
  let paired =
    List.filter_map
      (fun r ->
        if r.Psme_obs.Profile.pr_scanned > 0. then
          Option.map
            (fun c -> (c, r.Psme_obs.Profile.pr_scanned))
            (List.assoc_opt r.Psme_obs.Profile.pr_name costs)
        else None)
      prof.Psme_obs.Profile.prods
  in
  (List.length paired, spearman (List.map fst paired) (List.map snd paired))

(* The simulated engine is deterministic, so the measured correlations
   are stable run to run: strips rho=0.620 over 104 exercised
   productions, cypress rho=0.461 over 195 (the generated cypress rule
   families share one template and hence one static cost — large tie
   blocks cap the achievable rank agreement). The floors sit below the
   measured values with margin; a genuine model regression (sign flip,
   degenerate constant cost) lands far below them. *)
let check_correlation name w floor =
  let n, rho = profiled_correlation w in
  Alcotest.(check bool)
    (Printf.sprintf "%s: enough exercised productions (%d)" name n)
    true (n >= 8);
  Alcotest.(check bool)
    (Printf.sprintf "%s: static cost ranks like measured scans (rho=%.3f, floor %.2f)"
       name rho floor)
    true (rho >= floor)

let test_cost_model_strips () =
  check_correlation "strips" Psme_workloads.Strips.workload 0.55

let test_cost_model_cypress () =
  check_correlation "cypress" Psme_workloads.Cypress.workload 0.40

let suite =
  [
    Alcotest.test_case "domain: emptiness" `Quick test_domain_emptiness;
    Alcotest.test_case "domain: membership" `Quick test_domain_membership;
    Alcotest.test_case "domain: leq" `Quick test_domain_leq;
    Alcotest.test_case "analyze: unsat condition" `Quick test_unsat_condition;
    Alcotest.test_case "analyze: vacuous negation" `Quick test_vacuous_negation;
    Alcotest.test_case "analyze: subsumption direction" `Quick test_subsumes_direction;
    Alcotest.test_case "analyze: shadowed pair" `Quick test_shadowed_pair_rules;
    Alcotest.test_case "analyze: clean production" `Quick test_clean_production;
    Alcotest.test_case "analyze: undeclared class/field" `Quick test_undeclared;
    Alcotest.test_case "analyze: unsatisfiable ce" `Quick test_unsatisfiable_ce;
    Alcotest.test_case "analyze: never fires" `Quick test_never_fires;
    Alcotest.test_case "analyze: unused + duplicates" `Quick test_unused_and_duplicates;
    Alcotest.test_case "analyze: pragma suppression" `Quick test_pragma_suppression;
    Alcotest.test_case "analyze: identical LHSs are shadowed" `Quick
      test_identical_lhs_shadowed;
    Alcotest.test_case "analyze: shipped programs" `Quick test_shipped_programs;
    Alcotest.test_case "analyze: json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jcost: chain shapes" `Quick test_jcost_shapes;
    Alcotest.test_case "jcost: suggests selective-first" `Quick
      test_jcost_suggest_selective_first;
    Alcotest.test_case "fixture: planted defects fire" `Quick test_fixture_plants;
    Alcotest.test_case "fixture: pragmas keep the gate clean" `Quick
      test_fixture_suppressed_clean;
    Alcotest.test_case "network: injected dead nodes flagged" `Quick
      test_dead_node_injection;
    Alcotest.test_case "subsumption: runtime inclusion (deterministic)" `Quick
      test_subsumed_runtime_inclusion;
    Alcotest.test_case "reorder: negation locals stay local" `Quick
      test_reorder_keeps_negation_locals;
    Alcotest.test_case "reorder: conflict set is order-blind" `Quick
      test_reorder_differential;
    Alcotest.test_case "codesize: excise drops shared accounting" `Quick
      test_codesize_excise;
    Alcotest.test_case "cost model: strips rank correlation" `Quick
      test_cost_model_strips;
    Alcotest.test_case "cost model: cypress rank correlation" `Quick
      test_cost_model_cypress;
    QCheck_alcotest.to_alcotest prop_subsumption_runtime;
  ]
