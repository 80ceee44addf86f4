(* Tests of the Soar architecture: preference semantics, decisions,
   tie impasses/subgoals, chunk construction, transfer. *)

open Psme_support
open Psme_ops5
open Psme_soar

let v = Value.sym

(* --- preference semantics ------------------------------------------- *)

let vote ?referent value ptype = { Prefs.value; ptype; referent }

let verdict_t =
  Alcotest.testable
    (fun ppf -> function
      | Prefs.Winner x -> Format.fprintf ppf "Winner %s" (Value.to_string x)
      | Prefs.No_candidates -> Format.fprintf ppf "No_candidates"
      | Prefs.Tie xs ->
        Format.fprintf ppf "Tie [%s]" (String.concat ";" (List.map Value.to_string xs)))
    (fun a b ->
      match a, b with
      | Prefs.Winner x, Prefs.Winner y -> Value.equal x y
      | Prefs.No_candidates, Prefs.No_candidates -> true
      | Prefs.Tie xs, Prefs.Tie ys ->
        List.length xs = List.length ys && List.for_all2 Value.equal xs ys
      | _ -> false)

let test_prefs_single_acceptable () =
  Alcotest.check verdict_t "single acceptable wins" (Prefs.Winner (v "a"))
    (Prefs.decide [ vote (v "a") Prefs.Acceptable ])

let test_prefs_reject () =
  Alcotest.check verdict_t "reject removes" Prefs.No_candidates
    (Prefs.decide [ vote (v "a") Prefs.Acceptable; vote (v "a") Prefs.Reject ])

let test_prefs_tie () =
  Alcotest.check verdict_t "two acceptables tie"
    (Prefs.Tie [ v "a"; v "b" ])
    (Prefs.decide [ vote (v "a") Prefs.Acceptable; vote (v "b") Prefs.Acceptable ])

let test_prefs_better_resolves () =
  Alcotest.check verdict_t "better prunes" (Prefs.Winner (v "a"))
    (Prefs.decide
       [
         vote (v "a") Prefs.Acceptable;
         vote (v "b") Prefs.Acceptable;
         vote ~referent:(v "b") (v "a") Prefs.Better;
       ])

let test_prefs_better_cycle_stays_tie () =
  Alcotest.check verdict_t "preference cycle leaves both"
    (Prefs.Tie [ v "a"; v "b" ])
    (Prefs.decide
       [
         vote (v "a") Prefs.Acceptable;
         vote (v "b") Prefs.Acceptable;
         vote ~referent:(v "b") (v "a") Prefs.Better;
         vote ~referent:(v "a") (v "b") Prefs.Better;
       ])

let test_prefs_three_cycle_stays_tie () =
  Alcotest.check verdict_t "a cycle through every candidate prunes none"
    (Prefs.Tie [ v "a"; v "b"; v "c" ])
    (Prefs.decide
       [
         vote (v "a") Prefs.Acceptable;
         vote (v "b") Prefs.Acceptable;
         vote (v "c") Prefs.Acceptable;
         vote ~referent:(v "b") (v "a") Prefs.Better;
         vote ~referent:(v "c") (v "b") Prefs.Better;
         vote ~referent:(v "a") (v "c") Prefs.Better;
       ]);
  Alcotest.check verdict_t "a candidate below the cycle is still pruned"
    (Prefs.Tie [ v "a"; v "b"; v "c" ])
    (Prefs.decide
       [
         vote (v "a") Prefs.Acceptable;
         vote (v "b") Prefs.Acceptable;
         vote (v "c") Prefs.Acceptable;
         vote (v "d") Prefs.Acceptable;
         vote ~referent:(v "b") (v "a") Prefs.Better;
         vote ~referent:(v "c") (v "b") Prefs.Better;
         vote ~referent:(v "a") (v "c") Prefs.Better;
         vote ~referent:(v "d") (v "a") Prefs.Better;
       ])

let test_prefs_best () =
  Alcotest.check verdict_t "best dominates" (Prefs.Winner (v "b"))
    (Prefs.decide
       [
         vote (v "a") Prefs.Acceptable;
         vote (v "b") Prefs.Acceptable;
         vote (v "b") Prefs.Best;
       ])

let test_prefs_worst_avoided () =
  Alcotest.check verdict_t "worst is a last resort" (Prefs.Winner (v "a"))
    (Prefs.decide
       [
         vote (v "a") Prefs.Acceptable;
         vote (v "b") Prefs.Acceptable;
         vote (v "b") Prefs.Worst;
       ]);
  Alcotest.check verdict_t "lone worst still wins" (Prefs.Winner (v "b"))
    (Prefs.decide [ vote (v "b") Prefs.Acceptable; vote (v "b") Prefs.Worst ])

let test_prefs_indifferent_breaks_tie () =
  Alcotest.check verdict_t "binary indifference picks deterministically"
    (Prefs.Winner (v "a"))
    (Prefs.decide
       [
         vote (v "a") Prefs.Acceptable;
         vote (v "b") Prefs.Acceptable;
         vote ~referent:(v "b") (v "a") Prefs.Indifferent;
       ])

(* --- a tiny counting task ------------------------------------------- *)

let counting_task =
  {|
(sp counting*propose-space
  (goal <g> ^top-goal yes)
  -->
  (make preference ^goal <g> ^role problem-space ^value counting ^type acceptable))

(sp counting*propose-state
  (goal <g> ^problem-space counting)
  -->
  (make state (genatom s) ^count n0)
  (make preference ^goal <g> ^role state ^value (genatom s) ^type acceptable))

(sp counting*propose-inc
  (goal <g> ^problem-space counting ^state <s>)
  (state <s> ^count <c>)
  (succ <t> ^of <c> ^is <n>)
  -->
  (make operator (genatom o) ^name inc ^from <c> ^to <n>)
  (make preference ^goal <g> ^role operator ^value (genatom o) ^type acceptable))

(sp counting*apply-inc
  (goal <g> ^problem-space counting ^state <s> ^operator <o>)
  (operator <o> ^name inc ^to <n>)
  -->
  (make state (genatom s2) ^count <n>)
  (make preference ^goal <g> ^role state ^value (genatom s2) ^type acceptable)
  (make preference ^goal <g> ^role operator ^value <o> ^type reject))

(sp counting*done
  (goal <g> ^problem-space counting ^state <s>)
  (state <s> ^count n3)
  -->
  (write |counted to| n3)
  (halt))
|}

let make_counting_agent ?(config = Agent.default_config) () =
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  let prods = Parser.productions schema counting_task in
  let agent = Agent.create ~config schema prods in
  (* successor facts: n0 -> n1 -> n2 -> n3 *)
  List.iter
    (fun (a, b) ->
      let id = Agent.new_id agent "succ" in
      Agent.add_triple agent ~cls:"succ" ~id ~attr:"of" ~value:(v a);
      Agent.add_triple agent ~cls:"succ" ~id ~attr:"is" ~value:(v b))
    [ ("n0", "n1"); ("n1", "n2"); ("n2", "n3") ];
  agent

let test_counting_runs_to_halt () =
  let agent = make_counting_agent () in
  let summary = Agent.run agent in
  Alcotest.(check bool) "halted" true summary.Agent.halted;
  Alcotest.(check bool) "made decisions" true (summary.Agent.decisions >= 4);
  Alcotest.(check (list string)) "output" [ "counted to n3" ] summary.Agent.output

let test_counting_slots () =
  let agent = make_counting_agent () in
  ignore (Agent.run agent);
  let g = Agent.top_goal agent in
  Alcotest.(check bool) "problem space decided" true
    (Agent.slot agent ~goal:g ~role:"problem-space" = Some (v "counting"));
  Alcotest.(check bool) "state decided" true
    (Agent.slot agent ~goal:g ~role:"state" <> None)

(* Soar working memory is a set: an augmentation already present is not
   added again; one that differs in a field is. *)
let test_wm_is_a_set () =
  let agent = make_counting_agent () in
  let wm = Agent.wm agent in
  let id = Agent.new_id agent "h" in
  let add value = Agent.add_triple agent ~cls:"hand" ~id ~attr:"state" ~value in
  let n0 = Wm.size wm in
  add (v "free");
  Alcotest.(check int) "added" (n0 + 1) (Wm.size wm);
  add (v "free");
  Alcotest.(check int) "identical augmentation found" (n0 + 1) (Wm.size wm);
  add (v "busy");
  Alcotest.(check int) "different value is missing, so added" (n0 + 2) (Wm.size wm)

(* After every decision of every workload, [Agent.slot] — read from the
   decision index — agrees with a scan of working memory: each context
   slot holds the value of its one [(goal ^role value)] wme, or none. *)
let test_decision_index_agrees () =
  let open Psme_workloads in
  let roles = [ "problem-space"; "state"; "operator" ] in
  let check name agent decision =
    let values = Hashtbl.create 16 and goals = Hashtbl.create 16 in
    Wm.iter
      (fun w ->
        match w.Wme.fields with
        | [| Value.Sym g; Value.Sym r; value |] when Sym.name w.Wme.cls = "goal" ->
          Hashtbl.replace goals g ();
          if List.mem (Sym.name r) roles then Hashtbl.add values (g, Sym.name r) value
        | _ -> ())
      (Agent.wm agent);
    Hashtbl.iter
      (fun g () ->
        List.iter
          (fun role ->
            match Hashtbl.find_all values (g, role), Agent.slot agent ~goal:g ~role with
            | [], None -> ()
            | [ x ], Some y when Value.equal x y -> ()
            | _ ->
              Alcotest.failf "%s decision %d: slot %s of %s disagrees with working memory"
                name decision role (Sym.name g))
          roles)
      goals
  in
  List.iter
    (fun (name, make) ->
      let agent : Agent.t = make () in
      Agent.set_monitor agent (check name agent);
      let s = Agent.run agent in
      Alcotest.(check bool) (name ^ " made decisions") true (s.Agent.decisions > 0))
    [
      ("eight-puzzle", fun () -> Eight_puzzle.workload.Workload.make ());
      ("strips", fun () -> Strips.workload.Workload.make ());
      ("cypress", fun () -> Cypress.workload.Workload.make ());
      ("io-stream", fun () -> Io_stream.make_agent ());
    ]

(* Slot clearing and goal removal take their victims from indexes and
   must delete them in the order a whole-working-memory walk collects
   them. After every decision of eight-puzzle and cypress (learning on,
   so subgoals come and go), [Agent.slot_preferences] and
   [Agent.goal_victims] agree with such a walk, and every level list
   stays within twice its live wmes plus a constant. *)
let test_decide_victims_match_walk () =
  let open Psme_workloads in
  let roles = [ "problem-space"; "state"; "operator" ] in
  let tags = List.map (fun w -> w.Wme.timetag) in
  let check name agent decision =
    let walk = ref [] in
    Wm.iter (fun w -> walk := w :: !walk) (Agent.wm agent);
    let walk = List.rev !walk in
    let goals =
      List.sort_uniq Sym.compare
        (List.filter_map
           (fun w ->
             match w.Wme.fields with
             | [| Value.Sym g; _; _ |] when Sym.name w.Wme.cls = "goal" -> Some g
             | _ -> None)
           walk)
    in
    let fail what = Alcotest.failf "%s decision %d: %s" name decision what in
    List.iter
      (fun g ->
        List.iter
          (fun role ->
            let expected =
              List.filter
                (fun w ->
                  match Prefs.decode w with
                  | Some (goal, r, _) -> Sym.equal goal g && Sym.name r = role
                  | None -> false)
                walk
            in
            if tags (Agent.slot_preferences agent ~goal:g ~role) <> tags expected then
              fail (Printf.sprintf "preferences of %s %s" (Sym.name g) role))
          roles)
      goals;
    let depth = Agent.goal_depth agent in
    for d = 1 to depth do
      let expected = List.rev (List.filter (fun w -> Agent.level agent w > d) walk) in
      if tags (Agent.goal_victims agent ~depth:d) <> tags expected then
        fail (Printf.sprintf "victims below depth %d" d)
    done;
    for l = 2 to depth do
      let live = List.length (List.filter (fun w -> Agent.level agent w = l) walk) in
      if Agent.level_members agent ~level:l > (2 * live) + 16 then
        fail (Printf.sprintf "level %d list holds %d for %d live" l
                (Agent.level_members agent ~level:l) live)
    done
  in
  List.iter
    (fun (name, make) ->
      let agent : Agent.t = make () in
      Agent.set_monitor agent (check name agent);
      let s = Agent.run agent in
      Alcotest.(check bool) (name ^ " built chunks") true (s.Agent.chunks <> []))
    [
      ("eight-puzzle", fun () -> Eight_puzzle.workload.Workload.make ());
      ("cypress", fun () -> Cypress.workload.Workload.make ());
    ]

(* A tie at the top keeps one level-2 subgoal alive while it steps its
   own operator slot along a successor chain: each decision adds an
   acceptable, a reject and a value wme at level 2 and removes as many.
   The level-2 list must not grow with the rounds. *)
let stepping_task =
  {|
(sp step*propose-space
  (goal <g> ^top-goal yes)
  -->
  (make preference ^goal <g> ^role problem-space ^value stepping ^type acceptable))

(sp step*tie
  (goal <g> ^problem-space stepping)
  -->
  (make preference ^goal <g> ^role state ^value a ^type acceptable)
  (make preference ^goal <g> ^role state ^value b ^type acceptable))

(sp step*sub-space
  (goal <g> ^impasse tie)
  -->
  (make preference ^goal <g> ^role problem-space ^value count ^type acceptable))

(sp step*sub-state
  (goal <g> ^problem-space count)
  -->
  (make preference ^goal <g> ^role state ^value s0 ^type acceptable))

(sp step*first
  (goal <g> ^problem-space count ^state s0)
  -->
  (make preference ^goal <g> ^role operator ^value n0 ^type acceptable))

(sp step*next
  (goal <g> ^problem-space count ^state s0 ^operator <n>)
  (succ <x> ^of <n> ^is <m>)
  -->
  (make preference ^goal <g> ^role operator ^value <m> ^type acceptable)
  (make preference ^goal <g> ^role operator ^value <n> ^type reject))
|}

let test_level_list_bounded () =
  let rounds = 200 in
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  let config = { Agent.default_config with Agent.learning = false } in
  let agent = Agent.create ~config schema (Parser.productions schema stepping_task) in
  for i = 0 to rounds - 1 do
    let id = Agent.new_id agent "succ" in
    Agent.add_triple agent ~cls:"succ" ~id ~attr:"of" ~value:(v (Printf.sprintf "n%d" i));
    Agent.add_triple agent ~cls:"succ" ~id ~attr:"is"
      ~value:(v (Printf.sprintf "n%d" (i + 1)))
  done;
  let worst = ref 0 in
  Agent.set_monitor agent (fun _ ->
      let live = ref 0 in
      Wm.iter (fun w -> if Agent.level agent w = 2 then incr live) (Agent.wm agent);
      worst := max !worst (Agent.level_members agent ~level:2 - (2 * !live)));
  let s = Agent.run agent in
  Alcotest.(check int) "the subgoal stays" 2 (Agent.goal_depth agent);
  Alcotest.(check bool)
    (Printf.sprintf "stepped every round (%d decisions)" s.Agent.decisions)
    true (s.Agent.decisions > rounds);
  Alcotest.(check bool)
    (Printf.sprintf "level-2 list within 2 * live + 16 (worst excess %d)" !worst)
    true (!worst <= 16)

(* --- tie impasse, evaluation subgoal, chunking ------------------------ *)

(* Two operators with different scores tie; the subgoal evaluates them
   from score facts; defaults prefer the higher; a chunk is learned. *)
let choice_task =
  {|
(sp choice*propose-space
  (goal <g> ^top-goal yes)
  -->
  (make preference ^goal <g> ^role problem-space ^value choice ^type acceptable))

(sp choice*propose-state
  (goal <g> ^problem-space choice)
  -->
  (make state (genatom s) ^phase pick)
  (make preference ^goal <g> ^role state ^value (genatom s) ^type acceptable))

(sp choice*propose-option
  (goal <g> ^problem-space choice ^state <s>)
  (state <s> ^phase pick)
  (option <x> ^name <n>)
  -->
  (make operator (genatom o) ^option <x>)
  (make preference ^goal <g> ^role operator ^value (genatom o) ^type acceptable))

(sp choice*evaluate-option
  (goal <g2> ^impasse tie ^object <g1> ^item <o>)
  (operator <o> ^option <x>)
  (option <x> ^score <v>)
  -->
  (make evaluation (genatom e) ^object <o> ^value <v>))

(sp choice*apply
  (goal <g> ^problem-space choice ^state <s> ^operator <o>)
  (operator <o> ^option <x>)
  (option <x> ^name <n>)
  -->
  (write chose <n>)
  (halt))
|}

let make_choice_agent ?(config = Agent.default_config) ~scores () =
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  let prods =
    Parser.productions schema choice_task @ Defaults.productions schema
  in
  let agent = Agent.create ~config schema prods in
  List.iter
    (fun (name, score) ->
      let id = Agent.new_id agent "opt" in
      Agent.add_triple agent ~cls:"option" ~id ~attr:"name" ~value:(v name);
      Agent.add_triple agent ~cls:"option" ~id ~attr:"score" ~value:(Value.int score))
    scores;
  agent

let test_tie_creates_subgoal_and_resolves () =
  let agent = make_choice_agent ~scores:[ ("left", 3); ("right", 7) ] () in
  let summary = Agent.run agent in
  Alcotest.(check bool) "halted" true summary.Agent.halted;
  Alcotest.(check (list string)) "picked the higher score" [ "chose right" ]
    summary.Agent.output

let test_tie_learns_chunk () =
  let agent = make_choice_agent ~scores:[ ("left", 3); ("right", 7) ] () in
  let summary = Agent.run agent in
  Alcotest.(check bool) "built at least one chunk" true
    (List.length summary.Agent.chunks >= 1);
  List.iter
    (fun ci ->
      Alcotest.(check bool) "chunk marked as chunk" true
        ci.Agent.ci_prod.Production.is_chunk;
      Alcotest.(check bool) "chunk has conditions" true (ci.Agent.ci_ces >= 2);
      Alcotest.(check bool) "chunk compiled quickly but measurably" true
        (ci.Agent.ci_compile_ns >= 0))
    summary.Agent.chunks

let test_chunk_transfer_avoids_impasse () =
  (* During-chunking run learns; an after-chunking run on a fresh agent
     with the chunks loaded must reach the same answer with fewer
     decisions and no subgoal. *)
  let first = make_choice_agent ~scores:[ ("left", 3); ("right", 7) ] () in
  let s1 = Agent.run first in
  let chunks = Agent.learned_productions first in
  Alcotest.(check bool) "chunks learned" true (chunks <> []);
  let schema = Schema.create () in
  Agent.prepare_schema schema;
  let prods =
    Parser.productions schema choice_task @ Defaults.productions schema
  in
  let config = { Agent.default_config with Agent.learning = false } in
  let agent2 = Agent.create ~config schema (prods @ chunks) in
  List.iter
    (fun (name, score) ->
      let id = Agent.new_id agent2 "opt" in
      Agent.add_triple agent2 ~cls:"option" ~id ~attr:"name" ~value:(v name);
      Agent.add_triple agent2 ~cls:"option" ~id ~attr:"score" ~value:(Value.int score))
    [ ("left", 3); ("right", 7) ];
  let s2 = Agent.run agent2 in
  Alcotest.(check (list string)) "same answer" [ "chose right" ] s2.Agent.output;
  Alcotest.(check bool)
    (Printf.sprintf "fewer decisions after chunking (%d < %d)" s2.Agent.decisions
       s1.Agent.decisions)
    true
    (s2.Agent.decisions < s1.Agent.decisions);
  Alcotest.(check int) "no new chunks without learning" 0
    (List.length s2.Agent.chunks)

let test_update_phase_recorded () =
  let agent = make_choice_agent ~scores:[ ("left", 3); ("right", 7) ] () in
  let summary = Agent.run agent in
  let batches = List.length summary.Agent.update_stats in
  let chunks = List.length summary.Agent.chunks in
  Alcotest.(check bool) "at least one update batch" true (chunks = 0 || batches >= 1);
  Alcotest.(check bool) "no more batches than chunks" true (batches <= chunks)

let test_stall_detection () =
  (* No productions at all: the agent quiesces with nothing to decide. *)
  let schema = Schema.create () in
  let agent = Agent.create schema [] in
  let summary = Agent.run agent in
  Alcotest.(check bool) "stalled" true summary.Agent.stalled;
  Alcotest.(check bool) "not halted" false summary.Agent.halted

(* --- chunker unit tests ----------------------------------------------- *)

let test_backtrace_grounds () =
  let mk tag = Wme.make ~cls:(Sym.intern "x") ~fields:[||] ~timetag:tag in
  let g1 = mk 1 and g2 = mk 2 and sub1 = mk 10 and sub2 = mk 11 and _res_seed = mk 20 in
  let levels = [ (1, 1); (2, 1); (10, 2); (11, 2); (20, 2) ] in
  let creators =
    [
      (20, { Chunker.c_conds = [ sub1; g1 ]; c_level = 2 });
      (10, { Chunker.c_conds = [ g2; sub2 ]; c_level = 2 });
      (11, { Chunker.c_conds = [ g1 ]; c_level = 2 });
    ]
  in
  let grounds =
    Chunker.backtrace
      ~creator_of:(fun w -> List.assoc_opt w.Wme.timetag creators)
      ~level_of:(fun w -> List.assoc w.Wme.timetag levels)
      ~target_level:1
      ~seeds:[ sub1; g1 ]
  in
  Alcotest.(check (list int)) "grounds are the level-1 wmes, deduplicated"
    [ 1; 2 ]
    (List.map (fun w -> w.Wme.timetag) grounds)

let test_chunk_build_variablizes () =
  let schema = Schema.create () in
  Schema.declare schema "state" Psme_ops5.Parser.triple_fields;
  let s1 = Value.sym "s1" and b7 = Value.sym "b7" in
  let w1 =
    Wme.make ~cls:(Sym.intern "state")
      ~fields:[| s1; Value.sym "binding"; b7 |]
      ~timetag:1
  in
  let w2 =
    Wme.make ~cls:(Sym.intern "state")
      ~fields:[| b7; Value.sym "tile"; Value.int 3 |]
      ~timetag:2
  in
  let is_id v = Value.equal v s1 || Value.equal v b7 in
  let chunk =
    Chunker.build schema ~is_id ~name:(Sym.intern "chunk-test")
      ~grounds:[ w1; w2 ]
      ~results:[ (Sym.intern "state", [| s1; Value.sym "good"; Value.sym "yes" |]) ]
  in
  match chunk with
  | None -> Alcotest.fail "chunk should build"
  | Some p ->
    Alcotest.(check int) "two conditions" 2 (Production.num_ces p);
    (* s1 and b7 became variables, shared across conditions *)
    Alcotest.(check int) "two variables" 2 (List.length (Production.bound_vars p))

let triple_schema () =
  let schema = Schema.create () in
  Schema.declare schema "state" Psme_ops5.Parser.triple_fields;
  schema

let state_wme tag fields =
  Wme.make ~cls:(Sym.intern "state") ~fields:(Array.of_list fields) ~timetag:tag

(* A chunk over [grounds] whose result sits on identifier [id]; the
   symbols in [ids] are identifiers and become variables. *)
let chunk_of ~name ~ids ~id grounds =
  let is_id v = List.exists (fun s -> Value.equal v (Value.sym s)) ids in
  Chunker.build (triple_schema ()) ~is_id ~name:(Sym.intern name) ~grounds
    ~results:[ (Sym.intern "state", [| Value.sym id; Value.sym "q"; Value.int 2 |]) ]
  |> Option.get

let test_chunk_duplicate_canonical () =
  let mk id tag = state_wme tag [ Value.sym id; Value.sym "p"; Value.int 1 ] in
  let c1 = chunk_of ~name:"chunk-a" ~ids:[ "s1" ] ~id:"s1" [ mk "s1" 1 ] in
  let c2 = chunk_of ~name:"chunk-b" ~ids:[ "s9" ] ~id:"s9" [ mk "s9" 2 ] in
  Alcotest.(check bool) "alpha-equivalent chunks are duplicates" true
    (Chunker.same_form c1 c2);
  Alcotest.(check int) "and hash alike" (Chunker.form_hash c1) (Chunker.form_hash c2)

let test_chunk_distinct_forms () =
  let distinct what a b =
    Alcotest.(check bool) (what ^ ": not duplicates") false (Chunker.same_form a b)
  in
  let one v = [ state_wme 1 [ Value.sym "s1"; Value.sym "p"; v ] ] in
  let chunk name grounds = chunk_of ~name ~ids:[ "s1"; "s2" ] ~id:"s1" grounds in
  distinct "different constant"
    (chunk "chunk-c1" (one (Value.int 1)))
    (chunk "chunk-c2" (one (Value.int 5)));
  (* the same constants, but one chunk tests a single identifier twice
     where the other tests two *)
  let pair second =
    [
      state_wme 1 [ Value.sym "s1"; Value.sym "p"; Value.int 1 ];
      state_wme 2 [ Value.sym second; Value.sym "r"; Value.int 1 ];
    ]
  in
  distinct "different variable sharing"
    (chunk "chunk-v1" (pair "s1"))
    (chunk "chunk-v2" (pair "s2"));
  (* alike as text, different as values *)
  distinct "symbol 3 against integer 3"
    (chunk "chunk-t1" (one (Value.sym "3")))
    (chunk "chunk-t2" (one (Value.int 3)))

let suite =
  [
    Alcotest.test_case "prefs: single acceptable" `Quick test_prefs_single_acceptable;
    Alcotest.test_case "prefs: reject" `Quick test_prefs_reject;
    Alcotest.test_case "prefs: tie" `Quick test_prefs_tie;
    Alcotest.test_case "prefs: better resolves" `Quick test_prefs_better_resolves;
    Alcotest.test_case "prefs: better cycle" `Quick test_prefs_better_cycle_stays_tie;
    Alcotest.test_case "prefs: three-cycle" `Quick test_prefs_three_cycle_stays_tie;
    Alcotest.test_case "prefs: best" `Quick test_prefs_best;
    Alcotest.test_case "prefs: worst" `Quick test_prefs_worst_avoided;
    Alcotest.test_case "prefs: indifferent" `Quick test_prefs_indifferent_breaks_tie;
    Alcotest.test_case "counting runs to halt" `Quick test_counting_runs_to_halt;
    Alcotest.test_case "counting decides slots" `Quick test_counting_slots;
    Alcotest.test_case "working memory is a set" `Quick test_wm_is_a_set;
    Alcotest.test_case "decision index agrees with working memory" `Quick
      test_decision_index_agrees;
    Alcotest.test_case "decide victims match a working-memory walk" `Quick
      test_decide_victims_match_walk;
    Alcotest.test_case "level list stays bounded" `Quick test_level_list_bounded;
    Alcotest.test_case "tie creates subgoal and resolves" `Quick
      test_tie_creates_subgoal_and_resolves;
    Alcotest.test_case "tie learns chunk" `Quick test_tie_learns_chunk;
    Alcotest.test_case "chunk transfer avoids impasse" `Quick
      test_chunk_transfer_avoids_impasse;
    Alcotest.test_case "update phase recorded" `Quick test_update_phase_recorded;
    Alcotest.test_case "stall detection" `Quick test_stall_detection;
    Alcotest.test_case "backtrace grounds" `Quick test_backtrace_grounds;
    Alcotest.test_case "chunk build variablizes" `Quick test_chunk_build_variablizes;
    Alcotest.test_case "chunk canonical form" `Quick test_chunk_duplicate_canonical;
    Alcotest.test_case "chunk dedup keeps distinct chunks" `Quick
      test_chunk_distinct_forms;
  ]
