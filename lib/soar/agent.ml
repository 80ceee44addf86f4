open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine

let src = Logs.Src.create "soar.agent" ~doc:"Soar decide/chunking"
module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  learning : bool;
  max_decisions : int;
  max_elab_cycles : int;
  engine_mode : Engine.mode;
  net_config : Network.config;
  cost : Cost.params;
  trace : bool;
  async_elaboration : bool;
  tracer : Psme_obs.Trace.t option;
}

let default_config =
  {
    learning = true;
    max_decisions = 500;
    max_elab_cycles = 200;
    engine_mode = Engine.Serial_mode;
    net_config = Network.default_config;
    cost = Cost.default;
    trace = false;
    async_elaboration = false;
    tracer = None;
  }

type chunk_info = {
  ci_prod : Production.t;
  ci_ces : int;
  ci_bytes : int;
  ci_bytes_per_two_input : float;
  ci_compile_ns : int;
  ci_new_nodes : int;
}

type run_summary = {
  decisions : int;
  elab_cycles : int;
  halted : bool;
  stalled : bool;
  chunks : chunk_info list;
  match_stats : Cycle.stats list;
  update_stats : Cycle.stats list;
  output : string list;
}

type goal = {
  gid : Sym.t;
  depth : int;
  why : impasse option;
}

and impasse = {
  i_super : Sym.t;
  i_role : Sym.t;
  i_items : Value.t list;
}

type pending_result = {
  pr_wme : Wme.t;
  pr_creator : Chunker.creator;
  pr_target_level : int;
}

(* Live wmes keyed by contents, so one probe tells whether working
   memory already holds a wme (Soar working memory is a set). Equality
   is physical first (see [Wme.same_contents]): a wme carrying a NaN
   still finds its own entry when it is removed. *)
module Contents = Hashtbl.Make (struct
  type t = Wme.t

  let equal = Wme.same_contents
  let hash = Wme.hash
end)

type t = {
  cfg : config;
  schema : Schema.t;
  net : Network.t;
  eng : Engine.t;
  wm : Wm.t;
  mutable goals : goal list;  (* top first *)
  id_level : (Sym.t, int) Hashtbl.t;
  wme_level : int Contents.t;  (* live wme -> attachment level *)
  slots : (Sym.t * Sym.t, Wme.t list) Hashtbl.t;
      (* (goal, role) -> the slot's live value and preference wmes *)
  creators : (int, Chunker.creator) Hashtbl.t;  (* timetag -> provenance *)
  mutable pending : (Task.flag * Wme.t) list;  (* buffered cycle changes, reversed *)
  mutable pending_results : pending_result list;
  mutable chunk_forms : (string, unit) Hashtbl.t;  (* canonical chunk dedup *)
  mutable chunk_count : int;
  mutable halted : bool;
  mutable output_rev : string list;
  mutable chunks_rev : chunk_info list;
  mutable update_stats_rev : Cycle.stats list;
  mutable match_stats_rev : Cycle.stats list;
  mutable decisions : int;
  mutable elab_cycles : int;
  mutable input_fn : (int -> (string * Sym.t * string * Value.t) list) option;
  mutable monitor : (int -> unit) option;
      (* called after every decision with the running count; drives the
         CLI's telemetry watch mode *)
}

let goal_cls = "goal"
let roles = [ "problem-space"; "state"; "operator" ]

let config t = t.cfg
let schema t = t.schema
let network t = t.net
let engine t = t.eng
let wm t = t.wm
let top_goal t = (List.hd t.goals).gid
let goal_depth t = List.length t.goals

(* --- identifiers and levels ------------------------------------------ *)

let register_id t sym level =
  match Hashtbl.find_opt t.id_level sym with
  | Some _ -> ()
  | None -> Hashtbl.replace t.id_level sym level

let is_id t v =
  match v with
  | Value.Sym s -> Hashtbl.mem t.id_level s
  | _ -> false

let id_level t sym =
  match Hashtbl.find_opt t.id_level sym with Some l -> Some l | None -> None

(* The id a wme is attached to: field 0 of a triple-class wme, the goal
   field of a preference. *)
let attachment_id t w =
  if Sym.name w.Wme.cls = Prefs.class_name then
    match w.Wme.fields.(0) with Value.Sym g -> Some g | _ -> None
  else if Array.length w.Wme.fields = 3 then
    match w.Wme.fields.(0) with
    | Value.Sym s when Hashtbl.mem t.id_level s -> Some s
    | _ -> None
  else None

let live_level t w =
  match Contents.find_opt t.wme_level w with Some l -> l | None -> 1

(* Backtracing asks for the level of wmes that have left working memory
   since; they read 1, even when a wme with the same contents has been
   added again. *)
let wme_level t w = if Wm.mem t.wm w then live_level t w else 1

(* --- the decision index ------------------------------------------------ *)

let goal_sym = lazy (Sym.intern goal_cls)

(* The (goal, role) slot a wme belongs to, if any: a [(goal ^role value)]
   wme holds the slot's value, a preference votes on it. Roles are
   matched by name, so indexing interns nothing. *)
let slot_key w =
  let key g r = if List.mem (Sym.name r) roles then Some (g, r) else None in
  if Sym.equal w.Wme.cls (Lazy.force goal_sym) then
    match w.Wme.fields with [| Value.Sym g; Value.Sym r; _ |] -> key g r | _ -> None
  else match Prefs.decode w with Some (g, r, _) -> key g r | None -> None

let indexed t key = Option.value ~default:[] (Hashtbl.find_opt t.slots key)

let index_add t w =
  match slot_key w with
  | Some key -> Hashtbl.replace t.slots key (w :: indexed t key)
  | None -> ()

let index_remove t w =
  match slot_key w with
  | Some key -> (
    match List.filter (fun x -> not (Wme.equal x w)) (indexed t key) with
    | [] -> Hashtbl.remove t.slots key
    | rest -> Hashtbl.replace t.slots key rest)
  | None -> ()

(* Interning [role] is part of the lookup: the decision path interns the
   role names on its first visit, and symbol ids (hence every khash and
   memory line) depend on intern order. *)
let slot_wmes t ~goal ~role = indexed t (goal, Sym.intern role)

let value_wme wmes = List.find_opt (fun w -> Sym.equal w.Wme.cls (Lazy.force goal_sym)) wmes

let votes_in wmes =
  List.filter_map
    (fun w -> Option.map (fun (_, _, vote) -> (vote, w)) (Prefs.decode w))
    wmes

(* --- wme creation ------------------------------------------------------ *)

let ensure_triple_class t cls =
  let c = Sym.intern cls in
  if not (Schema.declared t.schema c) then
    Schema.declare t.schema cls Parser.triple_fields

(* Add a wme unless an identical one is present (Soar WM is a set).
   [level] is the creation context's goal depth; the wme's level is its
   attachment id's level when that id is known. *)
let internal_add t ~cls ~fields ~level ~creator =
  if Contents.mem t.wme_level (Wme.make ~cls ~fields ~timetag:0) then None
  else begin
    let w = Wm.add t.wm ~cls ~fields in
    (* register a new identifier introduced in field 0 of a triple *)
    (if Array.length fields = 3 && Sym.name cls <> Prefs.class_name then
       match fields.(0) with
       | Value.Sym s -> register_id t s level
       | _ -> ());
    let lvl =
      match attachment_id t w with
      | Some id -> ( match id_level t id with Some l -> l | None -> level)
      | None -> level
    in
    Contents.add t.wme_level w lvl;
    index_add t w;
    (match creator with
    | Some c -> Hashtbl.replace t.creators w.Wme.timetag c
    | None -> ());
    t.pending <- (Task.Add, w) :: t.pending;
    Some (w, lvl)
  end

let internal_remove t w =
  if Wm.mem t.wm w then begin
    Wm.remove t.wm w;
    Contents.remove t.wme_level w;
    index_remove t w;
    Hashtbl.remove t.creators w.Wme.timetag;
    (* A wme added and removed within the same buffered cycle must not
       reach the engines at all: concurrent processing of its Add and
       Delete would be order-dependent. Cancel the pending Add instead. *)
    if List.exists (fun (f, x) -> f = Task.Add && Wme.equal x w) t.pending then
      t.pending <-
        List.filter (fun (f, x) -> not (f = Task.Add && Wme.equal x w)) t.pending
    else t.pending <- (Task.Delete, w) :: t.pending
  end

let new_id t prefix =
  let s = Sym.fresh prefix in
  register_id t s 1;
  s

let add_triple t ~cls ~id ~attr ~value =
  ensure_triple_class t cls;
  let c = Sym.intern cls in
  register_id t id (List.length t.goals);
  let fields = [| Value.Sym id; Value.sym attr; value |] in
  ignore (internal_add t ~cls:c ~fields ~level:(List.length t.goals) ~creator:None)

(* --- queries ------------------------------------------------------------ *)

let slot t ~goal ~role =
  Option.map (fun w -> w.Wme.fields.(2)) (value_wme (slot_wmes t ~goal ~role))

(* --- construction -------------------------------------------------------- *)

let prepare_schema schema =
  Prefs.declare schema;
  Schema.declare schema goal_cls Parser.triple_fields

let create ?(config = default_config) schema productions =
  prepare_schema schema;
  let net = Network.create ~config:config.net_config schema in
  ignore (Build.add_all net productions);
  let eng =
    Engine.create ~cost:config.cost ?tracer:config.tracer config.engine_mode net
  in
  let t =
    {
      cfg = config;
      schema;
      net;
      eng;
      wm = Wm.create ();
      goals = [];
      id_level = Hashtbl.create 256;
      wme_level = Contents.create 1024;
      slots = Hashtbl.create 16;
      creators = Hashtbl.create 1024;
      pending = [];
      pending_results = [];
      chunk_forms = Hashtbl.create 64;
      chunk_count = 0;
      halted = false;
      output_rev = [];
      chunks_rev = [];
      update_stats_rev = [];
      match_stats_rev = [];
      decisions = 0;
      elab_cycles = 0;
      input_fn = None;
      monitor = None;
    }
  in
  (* the top goal *)
  let g1 = Sym.fresh "g" in
  register_id t g1 1;
  t.goals <- [ { gid = g1; depth = 1; why = None } ];
  ignore
    (internal_add t ~cls:(Lazy.force goal_sym)
       ~fields:[| Value.Sym g1; Value.sym "top-goal"; Value.sym "yes" |]
       ~level:1 ~creator:None);
  t

(* --- firing --------------------------------------------------------------- *)

let instantiation_level t (inst : Conflict_set.inst) =
  Array.fold_left
    (fun acc w -> max acc (wme_level t w))
    1 (Token.wmes inst.Conflict_set.token)

let fire_instantiation_unmetered t (inst : Conflict_set.inst) =
  let pm =
    match Network.find_production t.net inst.Conflict_set.prod with
    | Some pm -> pm
    | None -> invalid_arg "instantiation of unknown production"
  in
  let prod = pm.Network.meta_production in
  let bindings = Network.bindings_of t.net inst.Conflict_set.prod inst.Conflict_set.token in
  let level = instantiation_level t inst in
  let creator =
    {
      Chunker.c_conds = Array.to_list (Token.wmes inst.Conflict_set.token);
      c_level = level;
    }
  in
  let gensyms = Hashtbl.create 4 in
  let resolve = function
    | Action.Tconst v -> v
    | Action.Tvar v -> (
      match List.assoc_opt v bindings with
      | Some value -> value
      | None -> invalid_arg (Printf.sprintf "unbound RHS variable <%s>" v))
    | Action.Tgensym p -> (
      (* one fresh symbol per (prefix, firing) so several assignments in
         one action can share an id *)
      match Hashtbl.find_opt gensyms p with
      | Some s -> Value.Sym s
      | None ->
        let s = Sym.fresh p in
        register_id t s level;
        Hashtbl.replace gensyms p s;
        Value.Sym s)
  in
  List.iter
    (fun action ->
      match action with
      | Action.Make (cls, assigns) -> (
        let fields = Array.make (Schema.arity t.schema cls) Value.nil in
        List.iter (fun (f, term) -> fields.(f) <- resolve term) assigns;
        match internal_add t ~cls ~fields ~level ~creator:(Some creator) with
        | Some (w, wlvl) ->
          if wlvl < level then
            t.pending_results <-
              { pr_wme = w; pr_creator = creator; pr_target_level = wlvl }
              :: t.pending_results
        | None -> ())
      | Action.Write terms ->
        let render v =
          match v with Value.Str s -> s | _ -> Value.to_string v
        in
        let line =
          String.concat " " (List.map (fun term -> render (resolve term)) terms)
        in
        t.output_rev <- line :: t.output_rev;
        if t.cfg.trace then Log.app (fun m -> m "write: %s" line)
      | Action.Halt -> t.halted <- true
      | Action.Remove _ | Action.Modify _ ->
        invalid_arg
          (Printf.sprintf "production %s: Soar productions only add wmes"
             (Sym.name prod.Production.name)))
    prod.Production.rhs

(* RHS firing is the telemetry "act" phase. *)
let fire_instantiation t inst =
  Psme_obs.Telemetry.with_phase Psme_obs.Telemetry.global Psme_obs.Telemetry.Act
    (fun () -> fire_instantiation_unmetered t inst)

(* --- chunking --------------------------------------------------------------- *)

(* Compile one chunk into the network; its state update runs batched
   with the other chunks of this elaboration cycle. *)
let compile_chunk t grounds (result : Wme.t) =
  t.chunk_count <- t.chunk_count + 1;
  let name = Sym.fresh "chunk-" in
  match
    Chunker.build t.schema ~is_id:(is_id t) ~name ~grounds
      ~results:[ (result.Wme.cls, result.Wme.fields) ]
  with
  | None -> None
  | Some prod ->
    let form = Chunker.canonical_form t.schema prod in
    if Hashtbl.mem t.chunk_forms form then None
    else begin
      Hashtbl.replace t.chunk_forms form ();
      let (res : Build.add_result), compile_ns =
        Clock.time_ns (fun () -> Build.add_production t.net prod)
      in
      let info =
        {
          ci_prod = prod;
          ci_ces = Production.num_ces prod;
          ci_bytes = Codesize.bytes_of_addition t.net res;
          ci_bytes_per_two_input = Codesize.bytes_per_two_input_node t.net res;
          ci_compile_ns = compile_ns;
          ci_new_nodes = List.length res.Build.new_beta_nodes;
        }
      in
      t.chunks_rev <- info :: t.chunks_rev;
      (match t.cfg.tracer with
      | Some tr ->
        Psme_obs.Trace.emit tr Psme_obs.Trace.Chunk_add ~t_us:0.
          ~node:res.Build.meta.Network.pnode ~emitted:info.ci_new_nodes ()
      | None -> ());
      if t.cfg.trace then
        Log.app (fun m ->
            m "chunk %s: %d CEs, %d new nodes" (Sym.name prod.Production.name)
              info.ci_ces info.ci_new_nodes);
      Some (prod, res)
    end

let build_pending_chunks_unmetered t =
  let results = List.rev t.pending_results in
  t.pending_results <- [];
  if t.cfg.learning && results <> [] then begin
    let installed =
      List.filter_map
        (fun pr ->
          let grounds =
            Chunker.backtrace
              ~creator_of:(fun w -> Hashtbl.find_opt t.creators w.Wme.timetag)
              ~level_of:(wme_level t)
              ~target_level:pr.pr_target_level
              ~seeds:pr.pr_creator.Chunker.c_conds
          in
          compile_chunk t grounds pr.pr_wme)
        results
    in
    match installed with
    | [] -> ()
    | _ ->
      (* One update pass fills the memories of every chunk added at this
         quiescence point (§5.2), with full match parallelism. *)
      let tasks =
        Update.update_tasks_batch t.net t.wm (List.map snd installed)
      in
      (match t.cfg.tracer with
      | Some tr ->
        Psme_obs.Trace.emit tr Psme_obs.Trace.Chunk_update ~t_us:0.
          ~emitted:(List.length installed) ()
      | None -> ());
      let ustats = Engine.run_tasks t.eng tasks in
      t.update_stats_rev <- ustats :: t.update_stats_rev;
      (* instantiations derived by the update describe already-derived
         results; mark them fired so they do not re-fire spuriously *)
      let new_names = List.map (fun (p, _) -> p.Production.name) installed in
      List.iter
        (fun inst ->
          if List.exists (Sym.equal inst.Conflict_set.prod) new_names then
            Conflict_set.mark_fired t.net.Network.cs inst)
        (Conflict_set.pending t.net.Network.cs)
  end

(* Chunk compilation + network splice is the "chunk-splice" phase; the
   nested match episode it runs (memory update) opens its own [Match]
   section, and the telemetry layer attributes exclusively. *)
let build_pending_chunks t =
  Psme_obs.Telemetry.with_phase Psme_obs.Telemetry.global
    Psme_obs.Telemetry.Chunk_splice (fun () -> build_pending_chunks_unmetered t)

(* --- elaboration ----------------------------------------------------------- *)

let take_pending t =
  let changes = List.rev t.pending in
  t.pending <- [];
  changes

let elaboration_phase t =
  let cycles = ref 0 in
  let continue_ = ref true in
  while !continue_ && not t.halted && !cycles < t.cfg.max_elab_cycles do
    let changes = take_pending t in
    let insts_before = Conflict_set.pending t.net.Network.cs in
    if changes = [] && insts_before = [] then continue_ := false
    else begin
      incr cycles;
      t.elab_cycles <- t.elab_cycles + 1;
      let stats = Engine.run_changes t.eng changes in
      t.match_stats_rev <- stats :: t.match_stats_rev;
      let insts = Conflict_set.pending t.net.Network.cs in
      List.iter
        (fun inst ->
          Conflict_set.mark_fired t.net.Network.cs inst;
          fire_instantiation t inst)
        insts;
      if t.cfg.trace then
        Log.debug (fun m ->
            m "elab cycle %d: %d changes, %d firings" t.elab_cycles
              (List.length changes) (List.length insts))
    end
  done;
  (* chunks are added at the end of the elaboration cycle, at quiescence *)
  build_pending_chunks t

(* The §7 alternative: elaboration waves overlap in one engine episode,
   with instantiations fired as soon as they match.

   Soundness: once the decision phase's deletions have settled, an
   elaboration episode only ever ADDS wmes, so a match of a production
   without negated conditions is monotone — it can never be retracted
   later in the episode and is safe to fire immediately. Matches that
   involve negations or conjunctive negations can be transient (a
   blocking wme may still be in flight), so they are deferred to the
   episode's quiescence, where the conflict set holds exactly the
   surviving ones. *)
let async_safe (prod : Production.t) =
  List.for_all
    (function Cond.Pos _ -> true | Cond.Neg _ | Cond.Ncc _ -> false)
    prod.Production.lhs

let fire_now t inst =
  Conflict_set.mark_fired t.net.Network.cs inst;
  fire_instantiation t inst

let elaboration_phase_async t =
  (* wave 0 is synchronous: the decision's deletions must settle before
     additive monotonicity holds *)
  let changes0 = take_pending t in
  let insts0 = Conflict_set.pending t.net.Network.cs in
  if changes0 <> [] || insts0 <> [] then begin
    t.elab_cycles <- t.elab_cycles + 1;
    let stats0 = Engine.run_changes t.eng changes0 in
    t.match_stats_rev <- stats0 :: t.match_stats_rev;
    List.iter (fire_now t) (Conflict_set.pending t.net.Network.cs);
    (* subsequent waves are pure additions: run them as overlapping
       asynchronous episodes *)
    let episodes = ref 0 in
    let continue_ = ref true in
    while !continue_ && not t.halted && !episodes < t.cfg.max_elab_cycles do
      let changes = take_pending t in
      if changes = [] then continue_ := false
      else begin
        incr episodes;
        t.elab_cycles <- t.elab_cycles + 1;
        let stats =
          Engine.run_changes_async t.eng
            ~on_inst:(fun inst ->
              match Network.find_production t.net inst.Conflict_set.prod with
              | Some pm when async_safe pm.Network.meta_production ->
                fire_now t inst;
                take_pending t
              | Some _ | None -> []  (* deferred to quiescence *))
            changes
        in
        t.match_stats_rev <- stats :: t.match_stats_rev;
        (* fire the deferred (negation-involving) survivors *)
        List.iter (fire_now t) (Conflict_set.pending t.net.Network.cs);
        if t.cfg.trace then
          Log.debug (fun m ->
              m "async elaboration episode: %d changes, %d tasks" (List.length changes)
                stats.Cycle.tasks)
      end
    done
  end;
  build_pending_chunks t

(* --- decisions ---------------------------------------------------------------- *)

type decision_outcome =
  | Decided
  | Impassed
  | Nothing

let destroy_goals_below t depth =
  if List.exists (fun g -> g.depth > depth) t.goals then begin
    t.goals <- List.filter (fun g -> g.depth <= depth) t.goals;
    let victims = ref [] in
    Wm.iter (fun w -> if live_level t w > depth then victims := w :: !victims) t.wm;
    List.iter (internal_remove t) !victims;
    Hashtbl.filter_map_inplace
      (fun _ l -> if l > depth then None else Some l)
      t.id_level
  end

(* Removes each cleared slot's value, then consumes its preferences,
   role by role. The engines see the deletes in this order, so the
   preferences go in working-memory order, collected by one pass. *)
let clear_slot_and_deeper_roles t g role_idx =
  let prefs = Array.make (List.length roles) [] in
  Wm.iter
    (fun w ->
      match Prefs.decode w with
      | Some (goal, r, _) when Sym.equal goal g.gid -> (
        match List.find_index (String.equal (Sym.name r)) roles with
        | Some i when i >= role_idx -> prefs.(i) <- w :: prefs.(i)
        | Some _ | None -> ())
      | _ -> ())
    t.wm;
  List.iteri
    (fun i role ->
      if i >= role_idx then begin
        Option.iter (internal_remove t) (value_wme (slot_wmes t ~goal:g.gid ~role));
        List.iter (internal_remove t) (List.rev prefs.(i))
      end)
    roles

let install_slot t g role_idx value =
  clear_slot_and_deeper_roles t g role_idx;
  destroy_goals_below t g.depth;
  let role = List.nth roles role_idx in
  ignore
    (internal_add t ~cls:(Lazy.force goal_sym)
       ~fields:[| Value.Sym g.gid; Value.sym role; value |]
       ~level:g.depth ~creator:None);
  if t.cfg.trace then
    Log.app (fun m ->
        m "decide: %s %s <- %s" (Sym.name g.gid) role (Value.to_string value))

let create_subgoal t g role items item_pref_wmes =
  destroy_goals_below t g.depth;
  let g2 = Sym.fresh "g" in
  let depth = g.depth + 1 in
  register_id t g2 depth;
  t.goals <- t.goals @ [ { gid = g2; depth; why = Some { i_super = g.gid; i_role = Sym.intern role; i_items = items } } ];
  let arch attr v creator =
    ignore
      (internal_add t ~cls:(Lazy.force goal_sym)
         ~fields:[| Value.Sym g2; Value.sym attr; v |]
         ~level:depth ~creator)
  in
  arch "object" (Value.Sym g.gid) None;
  arch "impasse" (Value.sym "tie") None;
  arch "role" (Value.sym role) None;
  List.iter
    (fun item ->
      (* an ^item wme is derived from the item's acceptable preference,
         so backtracing a chunk through it reaches the supergoal *)
      let creator =
        match
          List.find_opt
            (fun (vote, _) ->
              vote.Prefs.ptype = Prefs.Acceptable && Value.equal vote.Prefs.value item)
            item_pref_wmes
        with
        | Some (_, w) -> Some { Chunker.c_conds = [ w ]; c_level = depth }
        | None -> None
      in
      arch "item" item creator)
    items;
  if t.cfg.trace then
    Log.app (fun m ->
        m "impasse: tie on %s of %s -> subgoal %s (%d items)" role (Sym.name g.gid)
          (Sym.name g2) (List.length items))

let rejected_in votes v =
  List.exists
    (fun (vote, _) -> vote.Prefs.ptype = Prefs.Reject && Value.equal vote.Prefs.value v)
    votes

let decision_phase_unmetered t =
  let outcome = ref Nothing in
  (try
     List.iter
       (fun g ->
         List.iteri
           (fun role_idx role ->
             let wmes = slot_wmes t ~goal:g.gid ~role in
             let votes = votes_in wmes in
             let current = Option.map (fun w -> w.Wme.fields.(2)) (value_wme wmes) in
             match Prefs.decide (List.map fst votes), current with
             | Prefs.Winner v, Some cur when Value.equal v cur -> ()
             | Prefs.Winner v, _ ->
               install_slot t g role_idx v;
               outcome := Decided;
               raise Exit
             | Prefs.No_candidates, Some cur when rejected_in votes cur ->
               clear_slot_and_deeper_roles t g role_idx;
               destroy_goals_below t g.depth;
               outcome := Decided;
               raise Exit
             | Prefs.No_candidates, _ -> ()
             | Prefs.Tie _, Some _ ->
               (* the incumbent persists until rejected *)
               ()
             | Prefs.Tie items, None ->
               (* continue into an existing matching subgoal, else create *)
               let existing =
                 List.find_opt
                   (fun sub ->
                     sub.depth = g.depth + 1
                     &&
                     match sub.why with
                     | Some w ->
                       Sym.equal w.i_super g.gid
                       && Sym.equal w.i_role (Sym.intern role)
                       && List.length w.i_items = List.length items
                       && List.for_all2 Value.equal w.i_items items
                     | None -> false)
                   t.goals
               in
               (match existing with
               | Some _ -> ()  (* walk continues into the subgoal *)
               | None ->
                 create_subgoal t g role items votes;
                 outcome := Impassed;
                 raise Exit))
           roles)
       t.goals
   with Exit -> ());
  !outcome

(* The decision procedure is the "conflict-resolution" phase. *)
let decision_phase t =
  Psme_obs.Telemetry.with_phase Psme_obs.Telemetry.global
    Psme_obs.Telemetry.Conflict_resolution (fun () -> decision_phase_unmetered t)

(* --- top level -------------------------------------------------------------- *)

let set_input t f = t.input_fn <- Some f
let set_monitor t f = t.monitor <- Some f

let inject_input t =
  match t.input_fn with
  | None -> ()
  | Some f ->
    List.iter
      (fun (cls, id, attr, value) -> add_triple t ~cls ~id ~attr ~value)
      (f t.decisions)

let run t =
  let match0 = List.length t.match_stats_rev in
  let update0 = List.length t.update_stats_rev in
  let chunks0 = List.length t.chunks_rev in
  let dec0 = t.decisions in
  let elab0 = t.elab_cycles in
  let stalled = ref false in
  let continue_ = ref true in
  while !continue_ && not t.halted && t.decisions - dec0 < t.cfg.max_decisions do
    inject_input t;
    if t.cfg.async_elaboration then elaboration_phase_async t else elaboration_phase t;
    if t.halted then continue_ := false
    else begin
      (match decision_phase t with
      | Decided | Impassed -> t.decisions <- t.decisions + 1
      | Nothing ->
        (* with an input function attached, quiescence without a decision
           just means we are waiting for the world: keep cycling *)
        if t.pending = [] && t.input_fn = None then begin
          stalled := true;
          continue_ := false
        end
        else t.decisions <- t.decisions + 1);
      match t.monitor with Some f -> f t.decisions | None -> ()
    end
  done;
  let since n l = List.rev l |> List.filteri (fun i _ -> i >= n) in
  {
    decisions = t.decisions - dec0;
    elab_cycles = t.elab_cycles - elab0;
    halted = t.halted;
    stalled = !stalled;
    chunks = since chunks0 t.chunks_rev;
    match_stats = since match0 t.match_stats_rev;
    update_stats = since update0 t.update_stats_rev;
    output = List.rev t.output_rev;
  }

let learned_productions t =
  List.rev_map (fun ci -> ci.ci_prod) t.chunks_rev

(* A [(halt)] fired mid-phase leaves wme changes buffered in [pending]:
   working memory already holds them but the match network never saw
   them. Verifiers that diff network state against [Wm] need the two in
   sync, so this pushes the stragglers through the engine — without
   firing anything — to restore quiescence. *)
let flush_match t =
  let changes = take_pending t in
  if changes <> [] then begin
    let stats = Engine.run_changes t.eng changes in
    t.match_stats_rev <- stats :: t.match_stats_rev
  end
