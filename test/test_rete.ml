(* Behavioural tests of the Rete matcher: incremental add/delete,
   negation, conjunctive negation, predicates, node sharing, run-time
   addition with state update, and bilinear network equivalence. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Fixtures

let count_insts net name =
  List.length
    (List.filter
       (fun i -> Sym.name i.Conflict_set.prod = name)
       (Conflict_set.to_list net.Network.cs))

let test_basic_match () =
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  let _b = add_and_match net wm schema "block"
      [ ("name", sym "b1"); ("color", sym "blue") ] in
  Alcotest.(check int) "no hand yet" 0 (count_insts net "blue-block-is-graspable");
  let _h = add_and_match net wm schema "hand" [ ("state", sym "free") ] in
  Alcotest.(check int) "matched" 1 (count_insts net "blue-block-is-graspable")

let test_constant_test_filters () =
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "red") ]);
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  Alcotest.(check int) "red block does not match" 0
    (count_insts net "blue-block-is-graspable")

let test_negation_blocks () =
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "blue") ]);
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  Alcotest.(check int) "matched before blocker" 1
    (count_insts net "blue-block-is-graspable");
  (* a block on b1 blocks the negation *)
  let blocker = add_and_match net wm schema "block"
      [ ("name", sym "b2"); ("on", sym "b1") ] in
  Alcotest.(check int) "negation blocks" 0 (count_insts net "blue-block-is-graspable");
  remove_and_match net wm blocker;
  Alcotest.(check int) "unblocked on delete" 1
    (count_insts net "blue-block-is-graspable")

let test_wme_delete_retracts () =
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  let b = add_and_match net wm schema "block"
      [ ("name", sym "b1"); ("color", sym "blue") ] in
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  Alcotest.(check int) "matched" 1 (count_insts net "blue-block-is-graspable");
  remove_and_match net wm b;
  Alcotest.(check int) "retracted" 0 (count_insts net "blue-block-is-graspable")

let test_variable_join () =
  let src =
    {|(p on-chain
        (block ^name <a> ^on <b>)
        (block ^name <b> ^on <c>)
        -->
        (write <a> <b> <c>))|}
  in
  let schema, net = network_of src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block" [ ("name", sym "x"); ("on", sym "y") ]);
  Alcotest.(check int) "half chain" 0 (count_insts net "on-chain");
  ignore (add_and_match net wm schema "block" [ ("name", sym "y"); ("on", sym "z") ]);
  Alcotest.(check int) "chain complete" 1 (count_insts net "on-chain");
  (* a second lower block creates a second instantiation through y *)
  ignore (add_and_match net wm schema "block" [ ("name", sym "z"); ("on", sym "w") ]);
  Alcotest.(check int) "z-w chain joins y-z" 2 (count_insts net "on-chain")

let test_right_before_left_order () =
  (* Matching is order-independent: wmes for later CEs first. *)
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "blue") ]);
  Alcotest.(check int) "matched with reversed arrival" 1
    (count_insts net "blue-block-is-graspable")

let test_predicate_tests () =
  let src =
    {|(p big-on-small
        (block ^name <a> ^state <sa>)
        (block ^name { <b> <> <a> } ^state > <sa>)
        -->
        (write <a> <b>))|}
  in
  let schema, net = network_of src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block" [ ("name", sym "a"); ("state", int 1) ]);
  ignore (add_and_match net wm schema "block" [ ("name", sym "b"); ("state", int 5) ]);
  (* (a,b) passes: 5 > 1. (b,a) fails: 1 > 5 false. self pairs fail <>. *)
  Alcotest.(check int) "one ordered pair" 1 (count_insts net "big-on-small")

let test_intra_ce_variable () =
  let src =
    {|(p self-loop
        (block ^name <x> ^on <x>)
        -->
        (write <x>))|}
  in
  let schema, net = network_of src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block" [ ("name", sym "a"); ("on", sym "b") ]);
  Alcotest.(check int) "a-on-b no self loop" 0 (count_insts net "self-loop");
  ignore (add_and_match net wm schema "block" [ ("name", sym "c"); ("on", sym "c") ]);
  Alcotest.(check int) "c-on-c matches" 1 (count_insts net "self-loop")

let test_disjunction () =
  let src =
    {|(p warm
        (block ^name <x> ^color << red orange yellow >>)
        -->
        (write <x>))|}
  in
  let schema, net = network_of src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block" [ ("name", sym "a"); ("color", sym "red") ]);
  ignore (add_and_match net wm schema "block" [ ("name", sym "b"); ("color", sym "blue") ]);
  ignore (add_and_match net wm schema "block" [ ("name", sym "c"); ("color", sym "yellow") ]);
  Alcotest.(check int) "two warm blocks" 2 (count_insts net "warm")

let ncc_src =
  {|(p clear-tower
      (hand ^state free)
      -{(block ^name <b> ^color blue) (block ^on <b>)}
      -->
      (write ok))|}

let test_ncc () =
  let schema, net = network_of ncc_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  Alcotest.(check int) "no blue-covered pair: matches" 1 (count_insts net "clear-tower");
  let blue = add_and_match net wm schema "block"
      [ ("name", sym "b1"); ("color", sym "blue") ] in
  Alcotest.(check int) "blue alone is not the conjunction" 1
    (count_insts net "clear-tower");
  let cover = add_and_match net wm schema "block"
      [ ("name", sym "b2"); ("on", sym "b1") ] in
  Alcotest.(check int) "conjunction present: blocked" 0 (count_insts net "clear-tower");
  remove_and_match net wm cover;
  Alcotest.(check int) "cover removed: matches again" 1 (count_insts net "clear-tower");
  ignore (add_and_match net wm schema "block" [ ("name", sym "b3"); ("on", sym "b1") ]);
  Alcotest.(check int) "re-blocked" 0 (count_insts net "clear-tower");
  remove_and_match net wm blue;
  Alcotest.(check int) "blue removed: conjunction gone" 1 (count_insts net "clear-tower")

let test_sharing_identical_prefix () =
  let src =
    {|(p p1 (block ^name <x> ^color blue) (hand ^state free) --> (write a))
      (p p2 (block ^name <x> ^color blue) (hand ^state free) --> (write b))|}
  in
  let _, net = network_of src in
  (* Entry + join shared; only the P-nodes differ. *)
  let metas = Network.productions net in
  let m1 = List.nth metas 0 and m2 = List.nth metas 1 in
  let shared =
    List.filter (fun n -> List.mem n m2.Network.chain) m1.Network.chain
  in
  Alcotest.(check int) "entry and join shared" 2 (List.length shared);
  Alcotest.(check int) "second production created only its P-node" 1
    (List.length m2.Network.created_nodes)

let test_sharing_divergence_is_permanent () =
  let src =
    {|(p p1 (block ^name <x> ^color blue) (hand ^state free) --> (write a))
      (p p2 (block ^name <x> ^color red) (hand ^state free) --> (write b))|}
  in
  let _, net = network_of src in
  let metas = Network.productions net in
  let m1 = List.nth metas 0 and m2 = List.nth metas 1 in
  let shared = List.filter (fun n -> List.mem n m2.Network.chain) m1.Network.chain in
  Alcotest.(check int) "nothing shared after alpha divergence" 0 (List.length shared)

let test_sharing_off () =
  let config = { Network.default_config with Network.share = false } in
  let src =
    {|(p p1 (block ^name <x> ^color blue) (hand ^state free) --> (write a))
      (p p2 (block ^name <x> ^color blue) (hand ^state free) --> (write b))|}
  in
  let _, net = network_of ~config src in
  let metas = Network.productions net in
  let m2 = List.nth metas 1 in
  Alcotest.(check int) "all nodes created fresh without sharing" 3
    (List.length m2.Network.created_nodes)

(* --- run-time addition and state update (§5.1/§5.2) ----------------- *)

let test_runtime_add_and_update () =
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "blue") ]);
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  (* Add a new production at quiescence; it shares the block prefix. *)
  let p2 =
    Parser.parse_production schema
      {|(p blue-block-on-table
          (block ^name <x> ^color blue)
          (place ^name <x> ^table free)
          -->
          (write <x>))|}
  in
  let res = Build.add_production net p2 in
  let tasks = Update.update_tasks net wm res in
  ignore (Psme_engine.Serial.run_tasks net tasks);
  Alcotest.(check int) "new production not yet matched" 0
    (count_insts net "blue-block-on-table");
  (* Subsequent changes flow into the new production normally. *)
  ignore (add_and_match net wm schema "place"
            [ ("name", sym "b1"); ("table", sym "free") ]);
  Alcotest.(check int) "matches after new wme" 1 (count_insts net "blue-block-on-table");
  Alcotest.(check int) "old production undisturbed" 1
    (count_insts net "blue-block-is-graspable")

let test_update_fills_memories () =
  (* The added production must match *existing* working memory via the
     update, including partial state in its memories. *)
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "blue") ]);
  ignore (add_and_match net wm schema "place"
            [ ("name", sym "b1"); ("table", sym "free") ]);
  let p2 =
    Parser.parse_production schema
      {|(p blue-block-on-table
          (block ^name <x> ^color blue)
          (place ^name <x> ^table free)
          -->
          (write <x>))|}
  in
  let res = Build.add_production net p2 in
  Alcotest.(check bool) "created at least one node" true
    (res.Build.new_beta_nodes <> []);
  let tasks = Update.update_tasks net wm res in
  ignore (Psme_engine.Serial.run_tasks net tasks);
  Alcotest.(check int) "instantiation found by update alone" 1
    (count_insts net "blue-block-on-table")

let test_update_no_duplicate_state () =
  (* After the update, deleting a wme must retract exactly once; a
     duplicate-state bug would make counts go negative or leave
     phantom instantiations. *)
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  let b = add_and_match net wm schema "block"
      [ ("name", sym "b1"); ("color", sym "blue") ] in
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  let p2 =
    Parser.parse_production schema
      {|(p two
          (block ^name <x> ^color blue)
          (hand ^state free)
          -->
          (write <x>))|}
  in
  (* p2 shares the entire prefix with graspable's first CE and the hand
     join cannot be shared (different middle), so update must replay
     through the last shared node without duplicating. *)
  let res = Build.add_production net p2 in
  let tasks = Update.update_tasks net wm res in
  ignore (Psme_engine.Serial.run_tasks net tasks);
  Alcotest.(check int) "update matched existing wm" 1 (count_insts net "two");
  remove_and_match net wm b;
  Alcotest.(check int) "clean retract for new production" 0 (count_insts net "two");
  Alcotest.(check int) "clean retract for old production" 0
    (count_insts net "blue-block-is-graspable")

let test_duplicate_chunk_fully_shared () =
  (* Adding a structurally identical production shares every node but
     the P-node; the update must still produce its instantiations. *)
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "blue") ]);
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  let dup =
    Parser.parse_production schema
      {|(p duplicate
          (block ^name <x> ^color blue)
          -(block ^on <x>)
          (hand ^state free)
          -->
          (make place ^name <x>))|}
  in
  let res = Build.add_production net dup in
  Alcotest.(check int) "only the P-node is new" 1 (List.length res.Build.new_beta_nodes);
  let tasks = Update.update_tasks net wm res in
  ignore (Psme_engine.Serial.run_tasks net tasks);
  Alcotest.(check int) "duplicate production matched from replay" 1
    (count_insts net "duplicate")

let test_excise_production () =
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "blue") ]);
  ignore (add_and_match net wm schema "hand" [ ("state", sym "free") ]);
  Alcotest.(check int) "matched" 1 (count_insts net "blue-block-is-graspable");
  Build.excise_production net (Sym.intern "blue-block-is-graspable");
  Alcotest.(check int) "conflict set cleared" 0
    (count_insts net "blue-block-is-graspable");
  Alcotest.(check int) "beta network emptied" 0 (Network.beta_node_count net);
  (* Changes after excision are inert but harmless. *)
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b9"); ("color", sym "blue") ]);
  Alcotest.(check int) "still nothing" 0 (count_insts net "blue-block-is-graspable")

(* --- bilinear networks ---------------------------------------------- *)

let long_chain_src =
  {|(p chain6
      (block ^name <a> ^on <b>)
      (block ^name <b> ^on <c>)
      (block ^name <c> ^on <d>)
      (block ^name <d> ^on <e>)
      (block ^name <e> ^on <f>)
      (block ^name <f> ^on <g>)
      (block ^name <g> ^on <h>)
      (block ^name <h> ^on <i>)
      -->
      (write <a> <i>))|}

let tower schema wm net n =
  for i = 0 to n - 1 do
    ignore
      (add_and_match net wm schema "block"
         [ ("name", sym (Printf.sprintf "t%d" i)); ("on", sym (Printf.sprintf "t%d" (i + 1))) ])
  done

let test_bilinear_equivalence () =
  let linear_cfg = Network.default_config in
  let bilinear_cfg = { Network.default_config with Network.bilinear = true } in
  let schema1, net1 = network_of ~config:linear_cfg long_chain_src in
  let schema2, net2 = network_of ~config:bilinear_cfg long_chain_src in
  let wm1 = Wm.create () and wm2 = Wm.create () in
  tower schema1 wm1 net1 10;
  tower schema2 wm2 net2 10;
  Alcotest.(check int) "linear matches" 3 (count_insts net1 "chain6");
  Alcotest.(check int) "bilinear matches the same" 3 (count_insts net2 "chain6");
  Alcotest.(check string) "identical instantiations" (cs_fingerprint net1)
    (cs_fingerprint net2)

let test_bilinear_uses_bjoins () =
  let config = { Network.default_config with Network.bilinear = true } in
  let _, net = network_of ~config long_chain_src in
  let has_bjoin =
    Hashtbl.fold
      (fun _ n acc ->
        acc || match n.Network.kind with Network.Bjoin _ -> true | _ -> false)
      net.Network.beta false
  in
  Alcotest.(check bool) "network contains binary joins" true has_bjoin

let test_bilinear_shortens_chain () =
  let depth net =
    let metas = Network.productions net in
    let pm = List.hd metas in
    let rec depth_of id =
      match (Network.node net id).Network.parent with
      | None -> 1
      | Some p -> 1 + depth_of p
    in
    depth_of pm.Network.pnode
  in
  let _, lin = network_of long_chain_src in
  let _, bil =
    network_of ~config:{ Network.default_config with Network.bilinear = true }
      long_chain_src
  in
  Alcotest.(check bool)
    (Printf.sprintf "bilinear depth %d < linear depth %d" (depth bil) (depth lin))
    true
    (depth bil < depth lin)

let test_bilinear_delete () =
  let config = { Network.default_config with Network.bilinear = true } in
  let schema, net = network_of ~config long_chain_src in
  let wm = Wm.create () in
  tower schema wm net 10;
  Alcotest.(check int) "matches" 3 (count_insts net "chain6");
  (* remove a middle block: all chains through it retract *)
  let victim =
    Wm.to_list wm
    |> List.find (fun w ->
           Value.equal (Wme.field w 0) (sym "t5"))
  in
  remove_and_match net wm victim;
  Alcotest.(check int) "retracts through binary joins" 0 (count_insts net "chain6")

(* Regressions the naive oracle found in bilinear builds. The small
   configuration restructures every production of two or more positive
   CEs: one context CE, then groups of two. Over the single wme
   [block a <color> <on> 0], the linear and the bilinear build must both
   give [expect] instantiations, exactly the oracle's. *)
let small_bilinear =
  {
    Network.default_config with
    Network.bilinear = true;
    bilinear_min_ces = 2;
    bilinear_ctx = 1;
    bilinear_group = 2;
  }

let check_builds_agree ~src ~color ~on expect =
  List.iter
    (fun (build, config) ->
      let schema, net = network_of ~config src in
      let wm = Wm.create () in
      ignore
        (add_and_match net wm schema "block"
           [ ("name", sym "a"); ("color", sym color); ("on", sym on); ("state", int 0) ]);
      Alcotest.(check int) (build ^ " instantiations") expect
        (Conflict_set.size net.Network.cs);
      Alcotest.(check (list (pair string (list int))))
        (build ^ " = oracle")
        (Test_props.oracle_cs net wm) (Test_props.rete_cs net))
    [ ("linear", Network.default_config); ("bilinear", small_bilinear) ]

(* An NCC's CEs live in its subnetwork: they are not required positives
   of the main token. *)
let test_bilinear_ncc_subnetwork () =
  check_builds_agree ~color:"red" ~on:"b" 1
    ~src:"(p ncc (block ^name <x>) -{(block ^on <x>)} (block ^color red) --> (write ok))"

(* Two predicates on another group's variable stay two cross-group
   tests, not one test plus an intra-wme comparison. *)
let test_bilinear_cross_group_predicates () =
  check_builds_agree ~color:"red" ~on:"a" 0
    ~src:
      "(p twice (block ^name <x>) (block ^on <y>) (block ^name <y>) (block ^color <> <y> \
       ^on <> <y>) --> (write ok))"

let test_bilinear_runtime_add_and_update () =
  (* a long production added at run time under the bilinear config must
     match existing working memory after the §5.2 update *)
  let config =
    { Network.default_config with Network.bilinear = true; bilinear_min_ces = 6 }
  in
  let schema, net = network_of ~config graspable_src in
  let wm = Wm.create () in
  tower schema wm net 10;
  let late = Parser.parse_production schema long_chain_src in
  let res = Build.add_production net late in
  let tasks = Update.update_tasks net wm res in
  ignore (Psme_engine.Serial.run_tasks net tasks);
  Alcotest.(check int) "bilinear runtime-added production matched by update" 3
    (count_insts net "chain6");
  (* and further changes flow normally *)
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "t10"); ("on", sym "t11") ]);
  Alcotest.(check int) "incremental match continues" 4 (count_insts net "chain6")

(* --- memory table ----------------------------------------------------- *)

let test_memory_roundtrip () =
  let mem = Memory.create ~lines:8 () in
  let w = Wme.make ~cls:(Sym.intern "c") ~fields:[| Value.nil |] ~timetag:1 in
  let tok = Token.singleton w in
  let line = Memory.line_of mem ~khash:5 in
  Memory.locked mem ~line (fun () ->
      (match Memory.left_add mem ~node:3 ~khash:5 tok ~count:0 with
      | `Activated _ -> ()
      | `Inert -> Alcotest.fail "fresh add should activate");
      let n = ref 0 in
      ignore (Memory.left_iter mem ~node:3 ~khash:5 (fun _ -> incr n));
      Alcotest.(check int) "inserted" 1 !n;
      (match Memory.left_remove mem ~node:3 ~khash:5 tok with
      | `Deactivated _ -> ()
      | `Inert -> Alcotest.fail "remove should deactivate");
      let m = ref 0 in
      ignore (Memory.left_iter mem ~node:3 ~khash:5 (fun _ -> incr m));
      Alcotest.(check int) "empty" 0 !m)

let test_memory_node_isolation () =
  let mem = Memory.create ~lines:8 () in
  let w = Wme.make ~cls:(Sym.intern "c") ~fields:[| Value.nil |] ~timetag:1 in
  let line = Memory.line_of mem ~khash:5 in
  Memory.locked mem ~line (fun () ->
      ignore (Memory.right_add mem ~node:1 ~khash:5 (Memory.R_wme w));
      ignore (Memory.right_add mem ~node:2 ~khash:5 (Memory.R_wme w));
      let seen = ref 0 in
      ignore (Memory.right_iter mem ~node:1 ~khash:5 (fun _ -> incr seen));
      Alcotest.(check int) "only node 1's entry" 1 !seen);
  Memory.drop_node mem ~node:1;
  Memory.locked mem ~line (fun () ->
      let seen = ref 0 in
      ignore (Memory.right_iter mem ~node:2 ~khash:5 (fun _ -> incr seen));
      Alcotest.(check int) "node 2 survives drop of node 1" 1 !seen)

let test_left_access_counters () =
  let schema, net = network_of graspable_src in
  let wm = Wm.create () in
  Memory.reset_cycle_stats net.Network.mem;
  ignore (add_and_match net wm schema "block"
            [ ("name", sym "b1"); ("color", sym "blue") ]);
  let total = Array.fold_left ( + ) 0 (Memory.left_accesses_per_line net.Network.mem) in
  Alcotest.(check bool) "left accesses recorded" true (total > 0);
  Memory.reset_cycle_stats net.Network.mem;
  let total' = Array.fold_left ( + ) 0 (Memory.left_accesses_per_line net.Network.mem) in
  Alcotest.(check int) "reset clears" 0 total'

let test_token_ops () =
  let w1 = Wme.make ~cls:(Sym.intern "c") ~fields:[||] ~timetag:1 in
  let w2 = Wme.make ~cls:(Sym.intern "c") ~fields:[||] ~timetag:2 in
  let w3 = Wme.make ~cls:(Sym.intern "c") ~fields:[||] ~timetag:3 in
  let t = Token.extend (Token.extend (Token.singleton w1) w2) w3 in
  Alcotest.(check int) "length" 3 (Token.length t);
  Alcotest.(check bool) "prefix" true
    (Token.equal (Token.prefix t 2) (Token.extend (Token.singleton w1) w2));
  Alcotest.(check bool) "suffix" true (Token.equal (Token.suffix t 2) (Token.singleton w3));
  Alcotest.(check bool) "permute" true
    (Token.equal
       (Token.permute t [| 2; 1; 0 |])
       (Token.extend (Token.extend (Token.singleton w3) w2) w1));
  Alcotest.(check bool) "concat" true
    (Token.equal (Token.concat (Token.prefix t 1) (Token.suffix t 1)) t)

let suite =
  [
    Alcotest.test_case "basic match" `Quick test_basic_match;
    Alcotest.test_case "constant tests filter" `Quick test_constant_test_filters;
    Alcotest.test_case "negation blocks/unblocks" `Quick test_negation_blocks;
    Alcotest.test_case "wme delete retracts" `Quick test_wme_delete_retracts;
    Alcotest.test_case "variable join" `Quick test_variable_join;
    Alcotest.test_case "arrival order independent" `Quick test_right_before_left_order;
    Alcotest.test_case "predicate tests" `Quick test_predicate_tests;
    Alcotest.test_case "intra-CE variables" `Quick test_intra_ce_variable;
    Alcotest.test_case "disjunction test" `Quick test_disjunction;
    Alcotest.test_case "conjunctive negation" `Quick test_ncc;
    Alcotest.test_case "node sharing" `Quick test_sharing_identical_prefix;
    Alcotest.test_case "sharing divergence permanent" `Quick
      test_sharing_divergence_is_permanent;
    Alcotest.test_case "sharing disabled" `Quick test_sharing_off;
    Alcotest.test_case "runtime add + update" `Quick test_runtime_add_and_update;
    Alcotest.test_case "update fills memories" `Quick test_update_fills_memories;
    Alcotest.test_case "update avoids duplicate state" `Quick
      test_update_no_duplicate_state;
    Alcotest.test_case "duplicate chunk fully shared" `Quick
      test_duplicate_chunk_fully_shared;
    Alcotest.test_case "excise production" `Quick test_excise_production;
    Alcotest.test_case "bilinear equivalence" `Quick test_bilinear_equivalence;
    Alcotest.test_case "bilinear uses binary joins" `Quick test_bilinear_uses_bjoins;
    Alcotest.test_case "bilinear shortens chain" `Quick test_bilinear_shortens_chain;
    Alcotest.test_case "bilinear delete" `Quick test_bilinear_delete;
    Alcotest.test_case "bilinear runtime add + update" `Quick
      test_bilinear_runtime_add_and_update;
    Alcotest.test_case "bilinear: NCC CEs stay in subnetwork" `Quick
      test_bilinear_ncc_subnetwork;
    Alcotest.test_case "bilinear: cross-group predicates" `Quick
      test_bilinear_cross_group_predicates;
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "memory node isolation" `Quick test_memory_node_isolation;
    Alcotest.test_case "left access counters" `Quick test_left_access_counters;
    Alcotest.test_case "token operations" `Quick test_token_ops;
  ]
