open Psme_support
open Psme_ops5
open Psme_rete

(* --- schema ------------------------------------------------------------- *)

(* The parser rejects undeclared classes and attributes, so these fire
   only on productions built in code — chunks (§5.1) among them. *)
let schema_findings schema (p : Production.t) =
  let name = Sym.name p.Production.name in
  let check what cls fields =
    if not (Schema.declared schema cls) then
      [
        Finding.error ~rule:"undeclared-class" ~subject:name
          (Printf.sprintf "%s names undeclared class %s" what (Sym.name cls));
      ]
    else
      let arity = Schema.arity schema cls in
      List.filter_map
        (fun (f, _) ->
          if f >= 0 && f < arity then None
          else
            Some
              (Finding.error ~rule:"bad-field" ~subject:name
                 (Printf.sprintf "%s field %d is out of range for class %s" what
                    f (Sym.name cls))))
        fields
  in
  let rec cond = function
    | Cond.Pos ce | Cond.Neg ce -> check "condition" ce.Cond.cls ce.Cond.tests
    | Cond.Ncc cs -> List.concat_map cond cs
  in
  let action = function
    | Action.Make (cls, fields) -> check "make" cls fields
    | Action.Modify (i, fields) -> (
      match Production.positive_ce p i with
      | ce -> check "modify" ce.Cond.cls fields
      | exception Invalid_argument _ -> [])
    | Action.Remove _ | Action.Write _ | Action.Halt -> []
  in
  List.concat_map cond p.Production.lhs @ List.concat_map action p.Production.rhs

(* --- satisfiability ------------------------------------------------------- *)

let field_domains ce =
  List.map (fun (f, atoms) -> (f, Domain.of_tests atoms)) (Cond.tests_by_field ce)

let unsat_fields ce =
  List.filter_map
    (fun (f, d) -> if Domain.is_empty d then Some f else None)
    (field_domains ce)

(* Primitive CEs of a LHS with their sign, NCC groups included (a CE
   inside an NCC counts as negated — its never matching makes the group
   vacuous, not the production). *)
let rec prims sign acc = function
  | [] -> acc
  | Cond.Pos ce :: rest -> prims sign ((sign, ce) :: acc) rest
  | Cond.Neg ce :: rest -> prims sign ((`Neg, ce) :: acc) rest
  | Cond.Ncc group :: rest -> prims sign (prims `Neg acc group) rest

let primitive_ces lhs = List.rev (prims `Pos [] lhs)

let satisfiability_findings (p : Production.t) =
  let name = Sym.name p.Production.name in
  List.concat
    (List.mapi
       (fun i (sign, ce) ->
         match unsat_fields ce with
         | [] -> []
         | fs ->
           let fields =
             String.concat ", " (List.map string_of_int fs)
           in
           let where =
             Printf.sprintf "CE %d (%s ^%s)" (i + 1)
               (match sign with `Pos -> "positive" | `Neg -> "negated")
               fields
           in
           [
             (match sign with
             | `Pos ->
               Finding.error ~rule:"unsat-condition" ~subject:name
                 (Printf.sprintf
                    "%s: no value can satisfy the field's tests; the \
                     production can never fire"
                    where)
             | `Neg ->
               Finding.warning ~rule:"vacuous-negation" ~subject:name
                 (Printf.sprintf
                    "%s: the negated pattern can never match, so the \
                     negation always passes"
                    where));
           ])
       (primitive_ces p.Production.lhs))

(* Top-level CEs repeated verbatim: twice with one sign is a
   [duplicate-ce]; once with each sign, the production's own match
   always blocks it ([unsatisfiable-production]). *)
let repeat_findings (p : Production.t) =
  let name = Sym.name p.Production.name in
  let rec go = function
    | [] -> []
    | Cond.Ncc _ :: rest -> go rest
    | ((Cond.Pos ce | Cond.Neg ce) as c) :: rest ->
      let cls = Sym.name ce.Cond.cls in
      let sign, flipped =
        match c with
        | Cond.Pos _ -> ("positive", Cond.Neg ce)
        | _ -> ("negated", Cond.Pos ce)
      in
      (if List.mem c rest then
         [
           Finding.warning ~rule:"duplicate-ce" ~subject:name
             (Printf.sprintf "%s condition on %s appears twice" sign cls);
         ]
       else [])
      @ (if List.mem flipped rest then
           [
             Finding.error ~rule:"unsatisfiable-production" ~subject:name
               (Printf.sprintf
                  "condition on %s is both required and negated: its own \
                   match always blocks it"
                  cls);
           ]
         else [])
      @ go rest
  in
  go p.Production.lhs

(* --- hygiene -------------------------------------------------------------- *)

let hygiene_findings (p : Production.t) =
  let name = Sym.name p.Production.name in
  (* a variable that occurs once is bound and never consulted (an
     unbound use is rejected by [Production.make]) *)
  let occs =
    List.concat_map Cond.vars p.Production.lhs
    @ List.concat_map Action.vars p.Production.rhs
  in
  let freq = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Hashtbl.replace freq v (1 + Option.value ~default:0 (Hashtbl.find_opt freq v)))
    occs;
  let unused =
    List.filter_map
      (fun v ->
        if Hashtbl.find freq v > 1 then None
        else
          Some
            (Finding.warning ~rule:"unused-variable" ~subject:name
               (Printf.sprintf "variable <%s> is bound but never used" v)))
      occs
  in
  let no_op =
    List.filter_map
      (function
        | Action.Modify (i, []) ->
          Some
            (Finding.warning ~rule:"no-op-modify" ~subject:name
               (Printf.sprintf "modify of condition %d changes nothing" i))
        | _ -> None)
      p.Production.rhs
  in
  unused @ no_op

(* --- subsumption / shadowing ----------------------------------------- *)

(* θ maps variables of the subsuming (more general) production P to
   variables of the subsumed Q. *)
let extend theta x y =
  match List.assoc_opt x theta with
  | Some y' -> if String.equal y y' then Some theta else None
  | None -> Some ((x, y) :: theta)

let var_atoms atoms =
  List.filter_map
    (function
      | Cond.T_var v -> Some (Cond.Eq, v)
      | Cond.T_rel (rel, Cond.Ovar v) -> Some (rel, v)
      | _ -> None)
    atoms

let const_domain atoms =
  Domain.of_tests
    (List.filter
       (function
         | Cond.T_var _ | Cond.T_rel (_, Cond.Ovar _) -> false
         | _ -> true)
       atoms)

(* [ce_covers ~link theta ~lo ~hi]: every wme matching [lo] also matches
   [hi]. Constant constraints via exact per-field domain containment;
   each variable atom of [hi] must be mirrored at the same field in [lo]
   with the same relation, the pairing recorded through [link] (which
   updates θ or refuses). Returns every consistent θ (the caller
   backtracks over them). *)
let ce_covers ~link theta ~(lo : Cond.ce) ~(hi : Cond.ce) =
  if not (Sym.equal lo.Cond.cls hi.Cond.cls) then []
  else begin
    let lo_fields = Cond.tests_by_field lo in
    let atoms_at f = Option.value ~default:[] (List.assoc_opt f lo_fields) in
    List.fold_left
      (fun thetas (f, hi_atoms) ->
        if thetas = [] then []
        else begin
          let lo_atoms = atoms_at f in
          if not (Domain.leq (const_domain lo_atoms) (const_domain hi_atoms))
          then []
          else
            let lo_vars = var_atoms lo_atoms in
            List.fold_left
              (fun thetas (rel, hv) ->
                List.concat_map
                  (fun theta ->
                    List.filter_map
                      (fun (rel', lv) ->
                        if rel' = rel then link theta hv lv else None)
                      lo_vars)
                  thetas)
              thetas (var_atoms hi_atoms)
        end)
      [ theta ]
      (Cond.tests_by_field hi)
  end

let split_signed lhs =
  let pos = ref [] and neg = ref [] and ncc = ref false in
  List.iter
    (function
      | Cond.Pos ce -> pos := ce :: !pos
      | Cond.Neg ce -> neg := ce :: !neg
      | Cond.Ncc _ -> ncc := true)
    lhs;
  (List.rev !pos, List.rev !neg, !ncc)

let max_subsume_ces = 8

(* [subsumes p q]: every match of [q] is a match of [p] (p is the more
   general production). Sound but incomplete: structurally identical
   LHSs are accepted first; otherwise NCC groups and very long LHSs bail
   out to [false]. *)
let subsumes (p : Production.t) (q : Production.t) =
  let p_pos, p_neg, p_ncc = split_signed p.Production.lhs in
  let q_pos, q_neg, q_ncc = split_signed q.Production.lhs in
  if p.Production.lhs = q.Production.lhs then true
  else if p_ncc || q_ncc then false
  else if List.length p_pos > max_subsume_ces
          || List.length q_pos > max_subsume_ces
  then false
  else begin
    (* positives: map each CE of p onto some CE of q such that the q CE
       is at least as specific (p vars on the hi side) *)
    let link_pos theta pv qv = extend theta pv qv in
    (* negatives: p's negation must be implied, i.e. every wme matching
       p's negated pattern (θ-mapped) matches q's (q vars on the hi
       side) *)
    let link_neg theta qv pv = extend theta pv qv in
    let rec assign_neg theta = function
      | [] -> true
      | n_p :: rest ->
        List.exists
          (fun n_q ->
            List.exists
              (fun theta -> assign_neg theta rest)
              (ce_covers ~link:link_neg theta ~lo:n_p ~hi:n_q))
          q_neg
    in
    let rec assign_pos theta = function
      | [] -> assign_neg theta p_neg
      | p_ce :: rest ->
        List.exists
          (fun q_ce ->
            List.exists
              (fun theta -> assign_pos theta rest)
              (ce_covers ~link:link_pos theta ~lo:q_ce ~hi:p_ce))
          q_pos
    in
    assign_pos [] p_pos
  end

(* Wasted structure of a duplicated chain, in Codesize's byte model:
   the beta nodes of [q]'s chain that [p]'s chain does not share. *)
let wasted_nodes net (pm : Network.pmeta) (qm : Network.pmeta) =
  let unshared =
    List.filter (fun id -> not (List.mem id pm.Network.chain)) qm.Network.chain
  in
  let bytes =
    List.fold_left
      (fun acc id ->
        match Network.node_opt net id with
        | Some n -> acc + Codesize.bytes_of_node net n
        | None -> acc)
      0 unshared
  in
  (List.length unshared, bytes)

let pair_findings ?net prods =
  let fs = ref [] in
  let emit f = fs := f :: !fs in
  let sharing_detail p q =
    match net with
    | None -> ""
    | Some net -> (
      match
        ( Network.find_production net p.Production.name,
          Network.find_production net q.Production.name )
      with
      | Some pm, Some qm ->
        let n, bytes = wasted_nodes net pm qm in
        if n = 0 then " (all beta nodes shared)"
        else
          Printf.sprintf " (%d unshared beta node(s), ~%d bytes of duplicated code)"
            n bytes
      | _ -> "")
  in
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
          let pq = subsumes p q and qp = subsumes q p in
          if pq && qp then
            emit
              (Finding.warning ~rule:"shadowed-pair"
                 ~subject:(Sym.name q.Production.name)
                 (Printf.sprintf
                    "LHS is equivalent to production %s: both match exactly \
                     the same wme combinations%s"
                    (Sym.name p.Production.name)
                    (sharing_detail p q)))
          else if pq then
            emit
              (Finding.warning ~rule:"subsumed-production"
                 ~subject:(Sym.name q.Production.name)
                 (Printf.sprintf
                    "subsumed by production %s: every match of this \
                     production is also a match of %s%s"
                    (Sym.name p.Production.name)
                    (Sym.name p.Production.name)
                    (sharing_detail p q)))
          else if qp then
            emit
              (Finding.warning ~rule:"subsumed-production"
                 ~subject:(Sym.name p.Production.name)
                 (Printf.sprintf
                    "subsumed by production %s: every match of this \
                     production is also a match of %s%s"
                    (Sym.name q.Production.name)
                    (Sym.name q.Production.name)
                    (sharing_detail q p))))
        rest;
      pairs rest
  in
  pairs prods;
  List.rev !fs

(* --- join-cost findings ---------------------------------------------- *)

let order_to_string order =
  String.concat " "
    (Array.to_list (Array.map (fun i -> string_of_int (i + 1)) order))

let reorder_gain = 1.25

let cost_findings (p : Production.t) =
  let name = Sym.name p.Production.name in
  let ch = Jcost.chain p in
  let fs = ref [] in
  if ch.Jcost.ch_cross <> [] then begin
    let cross_scan =
      List.fold_left (fun acc (_, st) -> acc +. st.Jcost.st_scan) 0.
        (List.filteri
           (fun i _ -> List.mem i ch.Jcost.ch_cross)
           (List.mapi (fun i st -> (i, st)) ch.Jcost.ch_steps))
    in
    fs :=
      Finding.warning ~rule:"cross-product-join" ~subject:name
        (Printf.sprintf
           "join level(s) %s share no variable with the preceding \
            conditions: every pairing matches (predicted scan work %.2f of \
            the chain's %.2f)"
           (String.concat ", "
              (List.map (fun l -> string_of_int (l + 1)) ch.Jcost.ch_cross))
           cross_scan ch.Jcost.ch_cost)
      :: !fs
  end;
  if ch.Jcost.ch_peak > Jcost.quadratic_bound () then
    fs :=
      Finding.warning ~rule:"join-cost" ~subject:name
        (Printf.sprintf
           "worst-case chain cost %.0f with peak token count %.0f exceeds \
            the quadratic bound %.0f"
           ch.Jcost.ch_cost ch.Jcost.ch_peak
           (Jcost.quadratic_bound ()))
      :: !fs;
  (match Jcost.suggest p with
  | Some better when ch.Jcost.ch_cost >= better.Jcost.ch_cost *. reorder_gain ->
    fs :=
      Finding.warning ~rule:"condition-reorder" ~subject:name
        (Printf.sprintf
           "reordering conditions as [%s] cuts the predicted chain cost \
            from %.0f to %.0f (%.1fx)"
           (order_to_string better.Jcost.ch_order)
           ch.Jcost.ch_cost better.Jcost.ch_cost
           (ch.Jcost.ch_cost /. better.Jcost.ch_cost))
      :: !fs
  | _ -> ());
  List.rev !fs

let static_costs prods =
  List.map
    (fun (p : Production.t) ->
      (Sym.name p.Production.name, (Jcost.chain p).Jcost.ch_cost))
    prods

(* --- network analysis: dead and vacuous nodes ------------------------- *)

let domain_of_atests tests =
  (* group the alpha chain's constant tests per field; A_same (intra-wme
     field relations) is not field-local, so it is skipped —
     conservative: skipping a constraint can only make the domain
     larger, never produce a false "dead" verdict *)
  let by_field = Hashtbl.create 8 in
  let touch f t =
    let old = try Hashtbl.find by_field f with Not_found -> [] in
    Hashtbl.replace by_field f (t :: old)
  in
  List.iter
    (fun t ->
      match t with
      | Alpha.A_const (f, v) -> touch f (Cond.T_const v)
      | Alpha.A_disj (f, vs) -> touch f (Cond.T_disj vs)
      | Alpha.A_rel (f, rel, v) -> touch f (Cond.T_rel (rel, Cond.Oconst v))
      | Alpha.A_same _ -> ())
    tests;
  Hashtbl.fold
    (fun f ts acc -> (f, Domain.of_tests (List.rev ts)) :: acc)
    by_field []

let amem_unsat tests =
  List.exists (fun (_, d) -> Domain.is_empty d) (domain_of_atests tests)

(* Contradictory pairs of join tests on the same (left field, right
   field) pair: the node can never pass a token. *)
let rels_contradict a b =
  match a, b with
  | Cond.Eq, (Cond.Ne | Cond.Lt | Cond.Gt)
  | Cond.Ne, Cond.Eq
  | Cond.Lt, (Cond.Gt | Cond.Ge | Cond.Eq)
  | Cond.Le, Cond.Gt
  | Cond.Gt, (Cond.Lt | Cond.Le | Cond.Eq)
  | Cond.Ge, Cond.Lt -> true
  | _ -> false

let two_input_contradiction (ti : Network.two_input) =
  let all = ti.Network.eq @ ti.Network.others in
  let rec scan = function
    | [] -> None
    | (j : Network.jtest) :: rest ->
      let clash =
        List.find_opt
          (fun (k : Network.jtest) ->
            j.Network.l_slot = k.Network.l_slot
            && j.Network.l_fld = k.Network.l_fld
            && j.Network.r_fld = k.Network.r_fld
            && rels_contradict j.Network.rel k.Network.rel)
          rest
      in
      (match clash with
      | Some k -> Some (j, k)
      | None -> scan rest)
  in
  scan all

let owners net id =
  List.filter_map
    (fun (pm : Network.pmeta) ->
      if List.mem id pm.Network.chain then
        Some (Sym.name pm.Network.meta_production.Production.name)
      else None)
    (Network.productions net)

let owners_str net id =
  match owners net id with
  | [] -> ""
  | ps -> Printf.sprintf " (production %s)" (String.concat ", " ps)

let network (net : Network.t) =
  let fs = ref [] in
  let emit f = fs := f :: !fs in
  let checked = ref 0 in
  (* 1. alpha memories whose constant-test chain is unsatisfiable *)
  let dead_amems = Hashtbl.create 8 in
  Alpha.iter_chains net.Network.alpha (fun ~amem ~cls ~tests ->
      incr checked;
      if amem_unsat tests then begin
        Hashtbl.replace dead_amems amem ();
        emit
          (Finding.error ~rule:"dead-alpha-memory"
             ~subject:(Printf.sprintf "amem %d" amem)
             (Printf.sprintf
                "no wme of class %s can pass its constant-test chain"
                (Sym.name cls)))
      end);
  (* 2. beta nodes with contradictory join tests *)
  let dead = Hashtbl.create 8 in
  Network.iter_nodes net (fun n ->
      incr checked;
      let contradiction =
        match n.Network.kind with
        | Network.Join ti | Network.Neg ti -> two_input_contradiction ti
        | _ -> None
      in
      match contradiction with
      | Some _ -> (
        match n.Network.kind with
        | Network.Join _ ->
          Hashtbl.replace dead n.Network.id ();
          emit
            (Finding.error ~rule:"dead-node"
               ~subject:(Printf.sprintf "node %d" n.Network.id)
               (Printf.sprintf
                  "join tests are contradictory: the node can never emit a \
                   token%s"
                  (owners_str net n.Network.id)))
        | _ ->
          emit
            (Finding.warning ~rule:"vacuous-negation"
               ~subject:(Printf.sprintf "node %d" n.Network.id)
               (Printf.sprintf
                  "negation tests are contradictory: the negation always \
                   passes%s"
                  (owners_str net n.Network.id))))
      | None -> ());
  (* 3. propagate: a node fed on the right by a dead alpha memory never
     right-activates; for joins and entries that kills the output, for
     negations it makes them vacuous. Then anything left-fed by a dead
     node is dead too. *)
  Network.iter_nodes net (fun n ->
      match n.Network.alpha_src with
      | Some am when Hashtbl.mem dead_amems am -> (
        match n.Network.kind with
        | Network.Entry | Network.Join _ | Network.Bjoin _ ->
          if not (Hashtbl.mem dead n.Network.id) then begin
            Hashtbl.replace dead n.Network.id ();
            emit
              (Finding.error ~rule:"dead-node"
                 ~subject:(Printf.sprintf "node %d" n.Network.id)
                 (Printf.sprintf
                    "right input is dead alpha memory %d: the node can \
                     never emit a token%s"
                    am (owners_str net n.Network.id)))
          end
        | Network.Neg _ ->
          emit
            (Finding.warning ~rule:"vacuous-negation"
               ~subject:(Printf.sprintf "node %d" n.Network.id)
               (Printf.sprintf
                  "right input is dead alpha memory %d: the negation always \
                   passes%s"
                  am (owners_str net n.Network.id)))
        | _ -> ())
      | _ -> ());
  (* transitive closure over left inputs, in id order (parents precede
     children thanks to the monotone-ID invariant) *)
  let ids =
    Network.fold_nodes net ~init:[] ~f:(fun acc n -> n.Network.id :: acc)
    |> List.sort compare
  in
  List.iter
    (fun id ->
      match Network.node_opt net id with
      | None -> ()
      | Some n -> (
        match n.Network.parent with
        | Some p when Hashtbl.mem dead p && not (Hashtbl.mem dead id) ->
          Hashtbl.replace dead id ();
          emit
            (Finding.error ~rule:"dead-node"
               ~subject:(Printf.sprintf "node %d" id)
               (Printf.sprintf
                  "left input node %d is dead: unreachable%s" p
                  (owners_str net id)))
        | _ -> ()))
    ids;
  Finding.report ~checked:!checked (List.rev !fs)

(* --- entry points ----------------------------------------------------- *)

let production schema (p : Production.t) =
  schema_findings schema p @ satisfiability_findings p @ repeat_findings p
  @ hygiene_findings p @ cost_findings p

let check_productions ?net schema prods =
  Finding.report ~checked:(List.length prods)
    (List.concat_map (production schema) prods @ pair_findings ?net prods)

let productions schema prods = check_productions schema prods

let source ?net schema ~src prods =
  let suppressed = Finding.suppressed_by src in
  let r =
    Finding.merge
      (check_productions ?net schema prods)
      (match net with Some net -> network net | None -> Finding.empty)
  in
  let kept, dropped =
    List.partition (fun f -> not (suppressed f)) r.Finding.findings
  in
  Finding.report ~checked:r.Finding.checked ~suppressed:(List.length dropped)
    kept
