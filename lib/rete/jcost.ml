open Psme_support
open Psme_ops5

(* Model parameters. The absolute numbers are arbitrary; everything the
   model is used for (ranking productions, comparing orders of one
   production, flagging unbounded growth) only depends on ratios. *)
let base_card = ref 16.
let const_sel = 0.1
let ne_sel = 0.9
let ord_sel = 0.5
let pred_join_sel = 0.5
let min_card = 0.05
let min_tokens = 0.01

let quadratic_bound () = !base_card *. !base_card

(* --- per-CE statistics ---------------------------------------------- *)

type ce_stats = {
  cs_idx : int;
  cs_cls : Sym.t;
  cs_selectivity : float;
  cs_card : float;
  cs_eq_vars : string list;
  cs_pred_vars : string list;
  cs_requires : string list;
  cs_vars : string list;
}

(* Scan a CE's tests exactly in the order the compiler consumes them
   (fields ascending — [Cond.ce] sorts — conjunction elements in list
   order), classifying each variable occurrence the way
   [Build.analyze]'s [add_var_test] would. *)
let stats_of_ce idx (ce : Cond.ce) =
  let sel = ref 1.0 in
  let eq_vars = ref [] and pred_vars = ref [] and requires = ref [] in
  let eq_seen = Hashtbl.create 8 in
  let add l v = if not (List.mem v !l) then l := v :: !l in
  let occur rel v =
    match rel with
    | Cond.Eq ->
      add eq_vars v;
      Hashtbl.replace eq_seen v ()
    | Cond.Ne | Cond.Lt | Cond.Le | Cond.Gt | Cond.Ge ->
      add pred_vars v;
      (* first occurrence is a predicate: the build needs the binding
         from an earlier CE *)
      if not (Hashtbl.mem eq_seen v) then add requires v
  in
  let atom = function
    | Cond.T_const _ -> sel := !sel *. const_sel
    | Cond.T_disj vs ->
      sel := !sel *. Float.min 1.0 (const_sel *. float_of_int (List.length vs))
    | Cond.T_rel (Cond.Eq, Cond.Oconst _) -> sel := !sel *. const_sel
    | Cond.T_rel (Cond.Ne, Cond.Oconst _) -> sel := !sel *. ne_sel
    | Cond.T_rel ((Cond.Lt | Cond.Le | Cond.Gt | Cond.Ge), Cond.Oconst _) ->
      sel := !sel *. ord_sel
    | Cond.T_var v -> occur Cond.Eq v
    | Cond.T_rel (rel, Cond.Ovar v) -> occur rel v
    | Cond.T_conj _ -> assert false (* flattened below *)
  in
  List.iter (fun (_, ts) -> List.iter atom ts) (Cond.tests_by_field ce);
  let sel = Float.max 1e-4 !sel in
  {
    cs_idx = idx;
    cs_cls = ce.Cond.cls;
    cs_selectivity = sel;
    cs_card = Float.max min_card (!base_card *. sel);
    cs_eq_vars = List.rev !eq_vars;
    cs_pred_vars = List.rev !pred_vars;
    cs_requires = List.rev !requires;
    cs_vars =
      List.rev !eq_vars
      @ List.filter (fun v -> not (List.mem v !eq_vars)) (List.rev !pred_vars);
  }

(* --- chain simulation ------------------------------------------------ *)

type step = {
  st_ce : int;
  st_scan : float;
  st_tokens : float;
  st_linked : bool;
}

type chain = {
  ch_order : int array;
  ch_steps : step list;
  ch_cost : float;
  ch_peak : float;
  ch_cross : int list;
}

(* One join level: previous token stream vs. an alpha memory of
   cardinality [card], with [eq] hash-selective links and [pred]
   residual-predicate links to the bound prefix. The scan term is the
   paper's dominant per-node cost (opposite-memory iteration), the token
   term is what flows to the next level. *)
let join_level ~tokens ~card ~eq ~pred =
  let scan = tokens *. card in
  let jsel =
    (1.0 /. !base_card) ** float_of_int eq *. (pred_join_sel ** float_of_int pred)
  in
  let out = Float.max min_tokens (tokens *. card *. jsel) in
  (scan, out)

let simulate stats order ~negs =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let steps = ref [] in
  let cost = ref 0. and peak = ref 0. and cross = ref [] in
  let tokens = ref 1.0 in
  let level = ref 0 in
  let place ~slotless (cs : ce_stats) =
    let eq = List.length (List.filter (Hashtbl.mem bound) cs.cs_eq_vars) in
    let pred =
      List.length
        (List.filter
           (fun v -> Hashtbl.mem bound v && not (List.mem v cs.cs_eq_vars))
           cs.cs_pred_vars)
    in
    let linked = eq + pred > 0 in
    let scan, out =
      if !level = 0 then (cs.cs_card, cs.cs_card)
      else join_level ~tokens:!tokens ~card:cs.cs_card ~eq ~pred
    in
    cost := !cost +. scan;
    if not slotless then begin
      if !level > 0 && not linked && cs.cs_vars <> [] then
        cross := !level :: !cross;
      tokens := out;
      peak := Float.max !peak out;
      incr level;
      List.iter (fun v -> Hashtbl.replace bound v ()) cs.cs_eq_vars
    end;
    steps :=
      { st_ce = cs.cs_idx; st_scan = scan; st_tokens = !tokens; st_linked = linked }
      :: !steps
  in
  Array.iter (fun i -> place ~slotless:false stats.(i)) order;
  (* negated CEs and NCC groups filter the final stream: they add scan
     cost but no slots *)
  List.iter (fun cs -> place ~slotless:true cs) negs;
  {
    ch_order = order;
    ch_steps = List.rev !steps;
    ch_cost = !cost;
    ch_peak = !peak;
    ch_cross = List.rev !cross;
  }

(* Top-level condition split: positive CEs carry slots; negatives and
   NCC groups (flattened) are slotless filters. *)
let split_lhs lhs =
  let pos = ref [] and neg = ref [] in
  List.iter
    (fun c ->
      match c with
      | Cond.Pos ce -> pos := ce :: !pos
      | Cond.Neg ce -> neg := ce :: !neg
      | Cond.Ncc group ->
        List.iter
          (fun ce -> neg := ce :: !neg)
          (Cond.positives group))
    lhs;
  (List.rev !pos, List.rev !neg)

let stats_of (p : Production.t) =
  let pos, neg = split_lhs p.Production.lhs in
  let stats = Array.of_list (List.mapi stats_of_ce pos) in
  let nstats = List.mapi (fun i ce -> stats_of_ce (Array.length stats + i) ce) neg in
  (stats, nstats)

let chain (p : Production.t) =
  let stats, negs = stats_of p in
  simulate stats (Array.init (Array.length stats) Fun.id) ~negs

let chain_of_order (p : Production.t) order =
  let stats, negs = stats_of p in
  if Array.length order <> Array.length stats then
    invalid_arg "Jcost.chain_of_order: order length mismatch";
  simulate stats order ~negs

(* --- order search ----------------------------------------------------- *)

let reorderable (p : Production.t) =
  List.for_all
    (function Cond.Pos _ | Cond.Neg _ -> true | Cond.Ncc _ -> false)
    p.Production.lhs
  && List.length (Cond.positives p.Production.lhs) >= 2
  && not (Production.negates_before_binding p)

(* Greedy most-selective-linked-first placement. A CE is eligible when
   every variable its predicates need is already bound; among eligible
   CEs, prefer ones linked to the placed prefix and the smallest
   resulting (scan, tokens). The original written order is always a
   valid placement (the production compiled), and the minimum-index
   unplaced CE only depends on lower-index CEs, so the eligible set is
   never empty. *)
let greedy_order stats =
  let n = Array.length stats in
  let placed = Array.make n false in
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let order = Array.make n 0 in
  let tokens = ref 1.0 in
  for level = 0 to n - 1 do
    let best = ref (-1) in
    let best_key = ref (infinity, infinity, max_int) in
    for i = 0 to n - 1 do
      if (not placed.(i))
         && List.for_all (Hashtbl.mem bound) stats.(i).cs_requires
      then begin
        let cs = stats.(i) in
        let eq = List.length (List.filter (Hashtbl.mem bound) cs.cs_eq_vars) in
        let pred =
          List.length
            (List.filter
               (fun v -> Hashtbl.mem bound v && not (List.mem v cs.cs_eq_vars))
               cs.cs_pred_vars)
        in
        let linked = if level = 0 || eq + pred > 0 || cs.cs_vars = [] then 0. else 1. in
        let scan, out =
          if level = 0 then (cs.cs_card, cs.cs_card)
          else join_level ~tokens:!tokens ~card:cs.cs_card ~eq ~pred
        in
        (* unlinked joins are last resorts whatever their size *)
        let key = (linked *. 1e12 +. out, scan, i) in
        if key < !best_key then begin
          best := i;
          best_key := key
        end
      end
    done;
    let i = !best in
    assert (i >= 0);
    placed.(i) <- true;
    order.(level) <- i;
    let cs = stats.(i) in
    let eq = List.length (List.filter (Hashtbl.mem bound) cs.cs_eq_vars) in
    let pred =
      List.length
        (List.filter
           (fun v -> Hashtbl.mem bound v && not (List.mem v cs.cs_eq_vars))
           cs.cs_pred_vars)
    in
    let _, out =
      if level = 0 then (cs.cs_card, cs.cs_card)
      else join_level ~tokens:!tokens ~card:cs.cs_card ~eq ~pred
    in
    tokens := out;
    List.iter (fun v -> Hashtbl.replace bound v ()) cs.cs_eq_vars
  done;
  order

let is_identity order =
  let ok = ref true in
  Array.iteri (fun i v -> if i <> v then ok := false) order;
  !ok

let suggest (p : Production.t) =
  if not (reorderable p) then None
  else begin
    let stats, negs = stats_of p in
    let order = greedy_order stats in
    if is_identity order then None
    else
      let written = simulate stats (Array.init (Array.length stats) Fun.id) ~negs in
      let better = simulate stats order ~negs in
      if better.ch_cost < written.ch_cost *. 0.999 then Some better else None
  end

let suggest_order p = Option.map (fun c -> c.ch_order) (suggest p)
