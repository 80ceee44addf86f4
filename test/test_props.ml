(* Property-based tests (qcheck): random production sets and random
   working-memory histories must satisfy the matcher's invariants, on
   every engine. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine

(* --- generators -------------------------------------------------------- *)

let colors = [ "red"; "blue"; "green" ]
let names = [ "a"; "b"; "c"; "d" ]

(* The blocks schema's fields in field order, with the constants and
   variables a generated test draws from. Block names double as ^on
   values, so name and on variables join across CEs; the states mix
   ints with a float, so ordered joins meet numeric coercion. *)
type field = { fname : string; consts : string list; vars : string list }

let fields =
  [
    { fname = "name"; consts = names; vars = [ "x"; "y" ] };
    { fname = "color"; consts = colors; vars = [ "c" ] };
    { fname = "on"; consts = "nil" :: names; vars = [ "x"; "y"; "z" ] };
    { fname = "state"; consts = [ "0"; "1"; "2"; "1.5" ]; vars = [ "s"; "t" ] };
  ]

let all_vars = [ "x"; "y"; "z"; "c"; "s"; "t" ]
let rels = [ "<>"; "<"; "<="; ">"; ">=" ]

(* One field's test as (source, variables it binds, whether it narrows
   the field to a few values). [bindable]: variables the CE may mention
   bare (binding them when unbound); [known]: variables bound before the
   test runs, which predicates may compare against, with a relation
   from [rels]. [wide] prefers join tests, stacking a conjunction on the
   state field, so a CE carries up to five of them. [narrow] forces a
   narrowing test. *)
let gen_test ~bindable ~known ~rels ~wide ~narrow f =
  let open QCheck.Gen in
  let bind_vars = List.filter (fun v -> List.mem v bindable) f.vars in
  let known_vars = List.filter (fun v -> List.mem v known) f.vars in
  let var vs = map (fun v -> (Printf.sprintf "<%s>" v, [ v ], true)) (oneofl vs) in
  let pred =
    let* r = oneofl rels in
    let* v = oneofl known_vars in
    return (Printf.sprintf "%s <%s>" r v, [], false)
  in
  let const = map (fun c -> (c, [], true)) (oneofl f.consts) in
  let cpred =
    let* r = oneofl rels and* c = oneofl f.consts in
    return (Printf.sprintf "%s %s" r c, [], false)
  in
  let disj =
    let* a = oneofl f.consts and* b = oneofl f.consts in
    return (Printf.sprintf "<< %s %s >>" a b, [], true)
  in
  let conj first =
    let* t1, b1, n1 = first in
    let* t2, _, _ = if known_vars = [] then cpred else frequency [ (2, pred); (1, cpred) ] in
    return (Printf.sprintf "{ %s %s }" t1 t2, b1, n1)
  in
  let when_ c l = if c then l else [] in
  if narrow then
    frequency ((1, const) :: when_ (bind_vars <> []) [ (2, var bind_vars) ])
  else if wide && known_vars <> [] then
    if f.fname = "state" then conj pred
    else frequency [ (2, var known_vars); (1, pred) ]
  else
    frequency
      ([ (3, return ("", [], false)); (2, const); (1, disj); (1, cpred) ]
      @ when_ (bind_vars <> []) [ (4, var bind_vars); (1, conj (var bind_vars)) ]
      @ when_ (known_vars <> []) [ (2, pred); (1, conj pred) ])

(* A CE over the blocks schema: its source and the variables it binds.
   Within the CE, a variable bound by an earlier field is known to the
   later ones. [narrow] keeps a positive CE from matching every block,
   which would blow working memory up into cross products. *)
let gen_ce ?(wide = false) ?(narrow = false) ~sign ~bindable ~known () =
  let open QCheck.Gen in
  (* a wide CE's joins are all [=]/[<>] half the time: the shape the
     node programs specialize apart from chains with ordered tests *)
  let* eqne = if wide then bool else return false in
  let rels = if eqne then [ "<>" ] else rels in
  let rec go known narrowed binds acc = function
    | [] ->
      return (Printf.sprintf "%s(block%s)" sign (String.concat "" (List.rev acc)), binds)
    | f :: rest ->
      let narrow = narrow && rest = [] && not narrowed in
      let* text, b, n = gen_test ~bindable ~known ~rels ~wide ~narrow f in
      let acc = if text = "" then acc else Printf.sprintf " ^%s %s" f.fname text :: acc in
      go (b @ known) (narrowed || n) (b @ binds) acc rest
  in
  go known false [] [] fields

(* An NCC group: a positive CE, optionally followed by a negated or a
   second positive CE. Variables the group's positives bind are local to
   the group; its negated CE may only mention bound ones. *)
let gen_ncc ~bound_anywhere ~before =
  let open QCheck.Gen in
  let* first, b1 = gen_ce ~sign:"" ~bindable:all_vars ~known:before () in
  let known = b1 @ before in
  let* second =
    frequency
      [
        (2, return "");
        (1, map fst (gen_ce ~sign:"-" ~bindable:(b1 @ bound_anywhere) ~known ()));
        (1, map fst (gen_ce ~sign:"" ~bindable:all_vars ~known ()));
      ]
  in
  return (Printf.sprintf "-{%s %s}" first second)

(* A random production over the blocks schema: 1-4 positive CEs with
   constant, disjunctive, conjunctive, variable and predicate tests
   (between variables too, with every relation), and up to two negated
   CEs or NCC groups anywhere after the first CE. A negation may mention
   a variable that only a later CE binds — local to the negation under
   written-order semantics. Predicates only compare against variables
   bound earlier, so the linear build accepts every production. *)
let gen_production =
  let open QCheck.Gen in
  let* n_pos = frequency [ (3, return 1); (4, return 2); (3, return 3); (2, return 4) ] in
  let rec positives i known acc =
    if i = n_pos then return (List.rev acc)
    else
      let* wide = if i = 0 then return false else map (fun k -> k = 0) (int_bound 2) in
      let* src, binds = gen_ce ~wide ~narrow:(i > 0) ~sign:"" ~bindable:all_vars ~known () in
      positives (i + 1) (binds @ known) ((src, known, binds) :: acc)
  in
  let* pos = positives 0 [] [] in
  let bound_anywhere = List.concat_map (fun (_, _, b) -> b) pos in
  (* negations go after positive CE [at] (1-based), where the variables
     bound so far are those of the positives before them *)
  let gen_negation at =
    let _, known, binds = List.nth pos (at - 1) in
    let before = binds @ known in
    frequency
      [
        (3, map fst (gen_ce ~sign:"-" ~bindable:bound_anywhere ~known:before ()));
        (2, gen_ncc ~bound_anywhere ~before);
      ]
  in
  let* negs =
    list_size (int_bound 2)
      (* early negations often mention variables only later CEs bind *)
      (let* at = frequency [ (1, return 1); (2, int_range 1 n_pos) ] in
       map (fun src -> (at, src)) (gen_negation at))
  in
  let lhs =
    List.concat
      (List.mapi
         (fun i (src, _, _) ->
           src :: List.filter_map (fun (at, n) -> if at = i + 1 then Some n else None) negs)
         pos)
  in
  let* id = int_bound 10_000_000 in
  return (Printf.sprintf "(p rnd-%d %s --> (write ok))" id (String.concat " " lhs))

let arb_productions =
  QCheck.make
    ~print:(fun l -> String.concat "\n" l)
    QCheck.Gen.(list_size (int_range 1 4) gen_production)

(* A random history: batches of adds/deletes of block wmes; deletes only
   target wmes from earlier batches. *)
type op =
  | Add_block of string * string * string * Value.t  (** name, color, on, state *)
  | Del of int  (** index into previously added wmes *)

let gen_history =
  let open QCheck.Gen in
  let gen_op =
    frequency
      [
        ( 4,
          let* n = oneofl names and* c = oneofl colors in
          let* on = oneofl ("nil" :: names) in
          let* s = oneofl [ Value.Int 0; Value.Int 1; Value.Int 2; Value.Float 1.5 ] in
          return (Add_block (n, c, on, s)) );
        (1, map (fun i -> Del i) (int_bound 30));
      ]
  in
  list_size (int_range 2 6) (list_size (int_range 1 8) gen_op)

let arb_history =
  QCheck.make
    ~print:(fun batches ->
      String.concat " | "
        (List.map
           (fun b ->
             String.concat ","
               (List.map
                  (function
                    | Add_block (n, c, on, s) ->
                      Printf.sprintf "+%s/%s/%s/%s" n c on (Value.to_string s)
                    | Del i -> Printf.sprintf "-#%d" i)
                  b))
           batches))
    gen_history

let blocks_schema () =
  let schema = Schema.create () in
  Schema.declare schema "block" [ "name"; "color"; "on"; "state" ];
  schema

(* Replay a history against working memory [wm], batch by batch: adds
   take [wm]'s timetags, and a delete hits a live wme added in an
   earlier batch (or nothing). [realize_batch] applies one batch to [wm]
   and returns its change list. *)
type replay = { wm : Wm.t; added : Wme.t Vec.t; deleted : (int, unit) Hashtbl.t }

let replay wm = { wm; added = Vec.create (); deleted = Hashtbl.create 16 }

let realize_batch r batch =
  let changes = ref [] in
  List.iter
    (function
      | Add_block (n, c, on, s) ->
        let fields = [| Value.sym n; Value.sym c; Value.sym on; s |] in
        let w = Wm.add r.wm ~cls:(Sym.intern "block") ~fields in
        Vec.push r.added w;
        changes := (Task.Add, w) :: !changes
      | Del i ->
        let n = Vec.length r.added in
        if n > 0 then begin
          let w = Vec.get r.added (i mod n) in
          if
            (not (Hashtbl.mem r.deleted w.Wme.timetag))
            && not (List.exists (fun (_, x) -> Wme.equal x w) !changes)
          then begin
            Hashtbl.replace r.deleted w.Wme.timetag ();
            Wm.remove r.wm w;
            changes := (Task.Delete, w) :: !changes
          end
        end)
    batch;
  List.rev !changes

let realize wm history =
  let r = replay wm in
  List.map (realize_batch r) history

(* Random productions may collide on a name or be declined by a build
   mode; skip those. *)
let try_build net schema srcs =
  List.filter_map
    (fun src ->
      match Parser.parse_production schema src with
      | p -> (
        try Some (Build.add_production net p) with
        | Invalid_argument _ | Build.Build_error _ -> None)
      | exception _ -> None)
    srcs

let build_net ?config schema srcs =
  let net = Network.create ?config schema in
  ignore (try_build net schema srcs);
  net

(* --- the naive-matcher oracle ---------------------------------------------- *)

let token_tags t = List.init (Token.length t) (fun i -> (Token.wme t i).Wme.timetag)

(* The Rete's conflict set in the oracle's shape. *)
let rete_cs net =
  Conflict_set.to_list net.Network.cs
  |> List.map (fun i -> (Sym.name i.Conflict_set.prod, token_tags i.Conflict_set.token))
  |> List.sort compare

let oracle_cs net wm =
  Naive.conflict_set
    (List.map (fun pm -> pm.Network.meta_production) (Network.productions net))
    (Wm.to_list wm)

let pp_cs cs =
  let tags l = String.concat "," (List.map string_of_int l) in
  String.concat " " (List.map (fun (p, l) -> Printf.sprintf "%s[%s]" p (tags l)) cs)

let check_oracle what net wm =
  let got = rete_cs net and want = oracle_cs net wm in
  if got <> want then
    QCheck.Test.fail_reportf "%s: Rete conflict set@ %s@ differs from the oracle's@ %s" what
      (pp_cs got) (pp_cs want)

(* Build the productions, then run the history batch by batch, checking
   the conflict set against the oracle after every batch. *)
let oracle_prop ~name ~count ?config run =
  QCheck.Test.make ~count ~name (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let net = build_net ?config schema prods in
      let wm = Wm.create () in
      let r = replay wm in
      List.iteri
        (fun i batch ->
          run net (realize_batch r batch);
          check_oracle (Printf.sprintf "batch %d" i) net wm)
        history;
      true)

let sim_cfg = { Sim.procs = 5; queues = Parallel.Multiple_queues; collect_trace = true }

let prop_oracle_serial =
  oracle_prop ~name:"oracle: serial engine" ~count:60 (fun net b ->
      ignore (Serial.run_changes net b))

(* traced, so the tracer is shown not to perturb the match *)
let prop_oracle_sim =
  oracle_prop ~name:"oracle: sim engine (5 procs, traced)" ~count:60 (fun net b ->
      ignore (Sim.run_changes ~tracer:(Psme_obs.Trace.create ()) sim_cfg net b))

let prop_oracle_domains =
  let cfg = { Parallel.processes = 3; queues = Parallel.Multiple_queues } in
  oracle_prop ~name:"oracle: domains engine (3 procs)" ~count:15 (fun net b ->
      ignore (Parallel.run_changes cfg net b))

let prop_oracle_reorder =
  oracle_prop ~name:"oracle: reorder_joins build" ~count:300
    ~config:{ Network.default_config with Network.reorder_joins = true }
    (fun net b -> ignore (Serial.run_changes net b))

let prop_oracle_bilinear =
  oracle_prop ~name:"oracle: bilinear build" ~count:1000
    ~config:
      {
        Network.default_config with
        Network.bilinear = true;
        bilinear_min_ces = 2;
        bilinear_ctx = 1;
        bilinear_group = 2;
      }
    (fun net b -> ignore (Sim.run_changes sim_cfg net b))

(* Run-time production changes (§5.1/§5.2): early productions see a
   third of the history, the late ones are spliced in at quiescence and
   updated from working memory, another third runs, one production is
   excised, and the rest runs. The oracle checks every step, and the
   state verifier reports no error throughout (after the excise it may
   only warn that the rebuild it diffs against no longer matches). *)
let prop_oracle_runtime_changes =
  QCheck.Test.make ~count:40 ~name:"oracle: run-time add, update, excise"
    (QCheck.triple arb_productions arb_productions arb_history)
    (fun (early, late, history) ->
      let schema = blocks_schema () in
      let net = build_net schema early in
      let wm = Wm.create () in
      let r = replay wm in
      let step = ref 0 in
      let check what =
        check_oracle what net wm;
        let v = Psme_check.Verify.state net (Wm.to_list wm) in
        if Psme_check.Finding.errors v > 0 then
          QCheck.Test.fail_reportf "%s: state verifier:@ %a" what Psme_check.Finding.pp v
      in
      let run_batches k =
        List.iter
          (fun batch ->
            ignore (Serial.run_changes net (realize_batch r batch));
            incr step;
            check (Printf.sprintf "batch %d" !step))
          k
      in
      let n = List.length history in
      let third k = List.filteri (fun i _ -> i * 3 / n = k) history in
      run_batches (third 0);
      let added = try_build net schema late in
      ignore (Serial.run_tasks net (Update.update_tasks_batch net wm added));
      check "after the run-time addition";
      run_batches (third 1);
      (match Network.productions net with
      | [] -> ()
      | pms ->
        let victim = List.nth pms (List.length history mod List.length pms) in
        Build.excise_production net victim.Network.meta_production.Production.name;
        check "after the excise");
      run_batches (third 2);
      true)

let prop_traced_sim_self_consistent =
  (* one traced episode's (time, tasks-in-system) samples and its event
     stream must agree with each other and with the returned stats *)
  QCheck.Test.make ~count:40 ~name:"traced sim episode is self-consistent"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize (Wm.create ()) history in
      let net = build_net schema prods in
      let cfg = sim_cfg in
      List.for_all
        (fun batch ->
          let tracer = Psme_obs.Trace.create () in
          let stats = Sim.run_changes ~tracer cfg net batch in
          let events = Psme_obs.Trace.events tracer in
          let count pred = Array.fold_left (fun a e -> if pred e then a + 1 else a) 0 events in
          let seeds =
            count (fun (e : Psme_obs.Trace.event) ->
                e.kind = Psme_obs.Trace.Queue_push && e.parent = -1)
          in
          let ends = count (fun e -> e.Psme_obs.Trace.kind = Psme_obs.Trace.Task_end) in
          let raw_makespan =
            stats.Cycle.makespan_us
            -. (Cost.default.Cost.alpha_act_us
               *. float_of_int stats.Cycle.alpha_activations)
          in
          let tr = stats.Cycle.trace in
          let n = Array.length tr in
          n >= 2
          (* starts at the seed count, at time zero *)
          && fst tr.(0) = 0.
          && snd tr.(0) = seeds
          (* every task in the system is eventually retired *)
          && snd tr.(n - 1) = 0
          (* samples stay within the episode *)
          && Array.for_all
               (fun (t, k) -> t >= 0. && t <= raw_makespan +. 1e-6 && k >= 0)
               tr
          (* one Task_end per executed task, spawned after its parent *)
          && ends = stats.Cycle.tasks
          && Array.for_all
               (fun (e : Psme_obs.Trace.event) ->
                 e.kind <> Psme_obs.Trace.Task_end
                 || e.parent < 0
                 || e.parent < e.task)
               events)
        batches)

(* --- add/remove symmetry --------------------------------------------------- *)

let prop_remove_all_empties_cs =
  QCheck.Test.make ~count:60 ~name:"removing every wme empties the conflict set"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let wm = Wm.create () in
      let batches = realize wm history in
      let net = build_net schema prods in
      List.iter (fun b -> ignore (Serial.run_changes net b)) batches;
      ignore (Serial.run_changes net (List.map (fun w -> (Task.Delete, w)) (Wm.to_list wm)));
      Conflict_set.size net.Network.cs = 0)

(* --- runtime addition ------------------------------------------------------- *)

let prop_runtime_add_equals_preload =
  QCheck.Test.make ~count:40
    ~name:"add-production-then-update = production-loaded-up-front"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      match prods with
      | [] -> true
      | late :: early ->
        let schema = blocks_schema () in
        let wm = Wm.create () in
        let batches = realize wm history in
        (* all up front *)
        let net_a = build_net schema (late :: early) in
        List.iter (fun b -> ignore (Serial.run_changes net_a b)) batches;
        (* one production added at run time, then updated *)
        let net_b = build_net schema early in
        List.iter (fun b -> ignore (Serial.run_changes net_b b)) batches;
        ignore
          (Serial.run_tasks net_b
             (Update.update_tasks_batch net_b wm (try_build net_b schema [ late ])));
        rete_cs net_a = rete_cs net_b)

(* --- preference semantics ---------------------------------------------------- *)

let arb_votes =
  let open QCheck.Gen in
  let gen_vote =
    let* v = int_bound 3 in
    let* r = int_bound 3 in
    let* p = int_bound 6 in
    let value = Value.sym (Printf.sprintf "c%d" v) in
    let referent = Some (Value.sym (Printf.sprintf "c%d" r)) in
    return
      (match p with
      | 0 -> { Psme_soar.Prefs.value; ptype = Acceptable; referent = None }
      | 1 -> { Psme_soar.Prefs.value; ptype = Reject; referent = None }
      | 2 -> { Psme_soar.Prefs.value; ptype = Better; referent }
      | 3 -> { Psme_soar.Prefs.value; ptype = Worse; referent }
      | 4 -> { Psme_soar.Prefs.value; ptype = Best; referent = None }
      | 5 -> { Psme_soar.Prefs.value; ptype = Worst; referent = None }
      | _ -> { Psme_soar.Prefs.value; ptype = Indifferent; referent })
  in
  QCheck.make
    ~print:(fun votes -> string_of_int (List.length votes))
    (list_size (int_bound 12) gen_vote)

let prop_decide_sound =
  QCheck.Test.make ~count:500 ~name:"decide: winner is acceptable and not rejected"
    arb_votes
    (fun votes ->
      let acceptable v =
        List.exists
          (fun x -> x.Psme_soar.Prefs.ptype = Acceptable && Value.equal x.value v)
          votes
      in
      let rejected v =
        List.exists
          (fun x -> x.Psme_soar.Prefs.ptype = Reject && Value.equal x.value v)
          votes
      in
      match Psme_soar.Prefs.decide votes with
      | Psme_soar.Prefs.Winner v -> acceptable v && not (rejected v)
      | Psme_soar.Prefs.Tie vs -> List.for_all (fun v -> acceptable v && not (rejected v)) vs
      | Psme_soar.Prefs.No_candidates ->
        List.for_all (fun v -> (not (acceptable v.Psme_soar.Prefs.value))
                               || rejected v.Psme_soar.Prefs.value)
          (List.filter (fun v -> v.Psme_soar.Prefs.ptype = Acceptable) votes))

(* --- data structure properties ----------------------------------------------- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~count:200 ~name:"event queue pops in time order"
    QCheck.(list (pair (float_bound_inclusive 1000.) small_int))
    (fun events ->
      let q = Event_queue.create () in
      List.iter (fun (t, x) -> Event_queue.add q ~time:t x) events;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_token_permute_roundtrip =
  QCheck.Test.make ~count:200 ~name:"token permute by inverse is identity"
    QCheck.(small_nat)
    (fun n ->
      let n = max 1 (n mod 8) in
      let cls = Sym.intern "c" in
      let t =
        Token.of_wmes (Array.init n (fun i -> Wme.make ~cls ~fields:[||] ~timetag:i))
      in
      let rng = Rng.create n in
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let inv = Array.make n 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      Token.equal t (Token.permute (Token.permute t perm) inv))

let prop_histogram_total =
  QCheck.Test.make ~count:200 ~name:"histogram fractions sum to 1"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_inclusive 2000.))
    (fun xs ->
      let h = Histogram.create ~bucket_width:100. ~buckets:10 in
      List.iter (Histogram.add h) xs;
      let total =
        List.fold_left (fun a (_, _, _, f) -> a +. f) 0. (Histogram.rows h)
      in
      abs_float (total -. 1.) < 1e-9 && Histogram.count h = List.length xs)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~count:100 ~name:"pretty-printed productions re-parse identically"
    arb_productions
    (fun srcs ->
      let schema = blocks_schema () in
      List.for_all
        (fun src ->
          match Parser.parse_production schema src with
          | p ->
            let printed = Format.asprintf "%a" (Production.pp schema) p in
            (match Parser.parse_production schema printed with
            | p' ->
              Production.num_ces p = Production.num_ces p'
              && Production.bound_vars p = Production.bound_vars p'
            | exception _ -> false)
          | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true)
        srcs)

let prop_lexer_total =
  QCheck.Test.make ~count:300 ~name:"lexer never crashes (only Lex_error)"
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 60) QCheck.Gen.printable)
    (fun src ->
      match Lexer.tokenize src with
      | toks -> Array.length toks >= 1
      | exception Lexer.Lex_error _ -> true)

(* Programs drawn from the grammar alone, not shaped for the matcher:
   fields repeat within a CE, tests nest, NCC groups nest, RHS indices
   run past the LHS and variables may be unbound. Each rule opens with a
   positive CE so that most programs get past the first-CE check. *)
let gen_program =
  let open QCheck.Gen in
  let const = oneofl [ "red"; "blue"; "a"; "nil"; "1"; "2.5"; "|s t|" ] in
  let var = map (Printf.sprintf "<%s>") (oneofl [ "x"; "y"; "z" ]) in
  let rel = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
  let rec test depth =
    frequency
      ([
         (4, const);
         (3, var);
         (2, map2 (Printf.sprintf "%s %s") rel (oneof [ const; var ]));
         ( 1,
           map (fun cs -> "<< " ^ String.concat " " cs ^ " >>")
             (list_size (int_bound 3) const) );
       ]
      @
      if depth = 0 then []
      else
        [
          ( 1,
            map (fun ts -> "{ " ^ String.concat " " ts ^ " }")
              (list_size (int_range 1 3) (test (depth - 1))) );
        ])
  in
  let pair =
    map2 (Printf.sprintf " ^%s %s") (oneofl [ "name"; "color"; "on"; "state" ]) (test 2)
  in
  let ce =
    map2
      (fun cls pairs -> Printf.sprintf "(%s%s)" cls (String.concat "" pairs))
      (frequencyl [ (24, "block"); (1, "widget") ])
      (list_size (int_bound 4) pair)
  in
  let rec cond depth =
    frequency
      ([ (6, ce); (2, map (( ^ ) "-") ce) ]
      @
      if depth = 0 then []
      else
        [
          ( 1,
            map (fun cs -> "-{" ^ String.concat " " cs ^ "}")
              (list_size (int_range 1 3) (cond (depth - 1))) );
        ])
  in
  let action =
    let* i = int_bound 6 and* x = var in
    oneofl
      [
        "(halt)";
        Printf.sprintf "(write ok %s)" x;
        Printf.sprintf "(remove %d)" i;
        Printf.sprintf "(modify %d block ^color red ^on %s)" i x;
        Printf.sprintf "(make block ^name %s)" x;
      ]
  in
  let rule =
    let* sp = frequency [ (3, return false); (1, return true) ] in
    let* first = ce and* rest = list_size (int_bound 3) (cond 2) in
    let* actions = list_size (int_range 1 3) action in
    return
      (Printf.sprintf "(%s r %s --> %s)" (if sp then "sp" else "p")
         (String.concat " " (first :: rest))
         (String.concat " " actions))
  in
  map (String.concat "\n") (list_size (int_range 1 3) rule)

let prop_parser_total =
  QCheck.Test.make ~count:300 ~name:"parser never crashes (only Parse_error/Lex_error)"
    (QCheck.make ~print:Fun.id gen_program)
    (fun src ->
      match Parser.parse_program (blocks_schema ()) src with
      | _ -> true
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true)

let prop_single_line_memory_equivalent =
  (* with a single hash line every activation contends on one lock;
     results must not change *)
  QCheck.Test.make ~count:30 ~name:"one memory line = default memory lines"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize (Wm.create ()) history in
      let build lines =
        let net =
          build_net ~config:{ Network.default_config with Network.lines } schema prods
        in
        List.iter (fun b -> ignore (Serial.run_changes net b)) batches;
        rete_cs net
      in
      build 1 = build 512)

let prop_excise_then_rebuild =
  QCheck.Test.make ~count:30 ~name:"excise + re-add restores the conflict set"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let wm = Wm.create () in
      let batches = realize wm history in
      let net = build_net schema prods in
      List.iter (fun b -> ignore (Serial.run_changes net b)) batches;
      let before = rete_cs net in
      match Network.productions net with
      | [] -> true
      | victim :: _ ->
        let p = victim.Network.meta_production in
        Build.excise_production net p.Production.name;
        (* re-add and update from the surviving wm *)
        let res = Build.add_production net p in
        ignore (Serial.run_tasks net (Update.update_tasks net wm res));
        rete_cs net = before)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_oracle_serial;
      prop_oracle_sim;
      prop_oracle_domains;
      prop_oracle_reorder;
      prop_oracle_bilinear;
      prop_oracle_runtime_changes;
      prop_traced_sim_self_consistent;
      prop_remove_all_empties_cs;
      prop_runtime_add_equals_preload;
      prop_decide_sound;
      prop_event_queue_sorted;
      prop_token_permute_roundtrip;
      prop_histogram_total;
      prop_parse_print_roundtrip;
      prop_lexer_total;
      prop_parser_total;
      prop_single_line_memory_equivalent;
      prop_excise_then_rebuild;
    ]
