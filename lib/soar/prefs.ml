open Psme_support
open Psme_ops5

type ptype =
  | Acceptable
  | Reject
  | Better
  | Worse
  | Best
  | Worst
  | Indifferent

let ptype_table =
  [
    ("acceptable", Acceptable);
    ("reject", Reject);
    ("better", Better);
    ("worse", Worse);
    ("best", Best);
    ("worst", Worst);
    ("indifferent", Indifferent);
  ]

let ptype_of_sym s =
  List.assoc_opt (Sym.name s) ptype_table

let sym_of_ptype p =
  let name, _ = List.find (fun (_, q) -> q = p) ptype_table in
  Sym.intern name

type vote = {
  value : Value.t;
  ptype : ptype;
  referent : Value.t option;
}

type verdict =
  | Winner of Value.t
  | No_candidates
  | Tie of Value.t list

let decide votes =
  let values_with p =
    List.filter_map (fun v -> if v.ptype = p then Some v.value else None) votes
  in
  let acceptable = List.sort_uniq Value.compare (values_with Acceptable) in
  let rejected = values_with Reject in
  let cands =
    List.filter (fun v -> not (List.exists (Value.equal v) rejected)) acceptable
  in
  (* better/worse: v dominated when some candidate w is better than v and
     v is not better than w (preference cycles leave both standing). *)
  let better_pairs =
    List.filter_map
      (fun v ->
        match v.ptype, v.referent with
        | Better, Some r -> Some (v.value, r)
        | Worse, Some r -> Some (r, v.value)
        | _ -> None)
      votes
  in
  let is_better a b =
    List.exists (fun (x, y) -> Value.equal x a && Value.equal y b) better_pairs
  in
  let dominates w v = (not (Value.equal v w)) && is_better w v && not (is_better v w) in
  let undominated =
    List.filter (fun v -> not (List.exists (fun w -> dominates w v) cands)) cands
  in
  (* A cycle through three or more candidates can leave every one of them
     dominated. Then keep the candidates whose cycle no candidate outside
     it dominates: v stays when every w that reaches v is reached from v. *)
  let reached_from a =
    let rec go seen = function
      | [] -> seen
      | x :: rest ->
        let next =
          List.filter
            (fun y -> dominates x y && not (List.exists (Value.equal y) seen))
            cands
        in
        go (next @ seen) (next @ rest)
    in
    go [ a ] [ a ]
  in
  let cands =
    if undominated <> [] then undominated
    else
      List.filter
        (fun v ->
          let from_v = reached_from v in
          List.for_all
            (fun w ->
              (not (List.exists (Value.equal v) (reached_from w)))
              || List.exists (Value.equal w) from_v)
            cands)
        cands
  in
  let best = List.filter (fun v -> List.exists (Value.equal v) (values_with Best)) cands in
  let cands = if best <> [] then List.sort_uniq Value.compare best else cands in
  let worsts = values_with Worst in
  let non_worst =
    List.filter (fun v -> not (List.exists (Value.equal v) worsts)) cands
  in
  let cands = if non_worst <> [] then non_worst else cands in
  match cands with
  | [] -> No_candidates
  | [ v ] -> Winner v
  | many ->
    let unary_indiff =
      List.filter_map
        (fun v -> if v.ptype = Indifferent && v.referent = None then Some v.value else None)
        votes
    in
    let binary_indiff a b =
      List.exists
        (fun v ->
          v.ptype = Indifferent
          &&
          match v.referent with
          | Some r ->
            (Value.equal v.value a && Value.equal r b)
            || (Value.equal v.value b && Value.equal r a)
          | None -> false)
        votes
    in
    let indifferent a b =
      Value.equal a b
      || List.exists (Value.equal a) unary_indiff
      || List.exists (Value.equal b) unary_indiff
      || binary_indiff a b
    in
    let all_indifferent =
      List.for_all (fun a -> List.for_all (fun b -> indifferent a b) many) many
    in
    if all_indifferent then Winner (List.hd many) else Tie many

(* --- wme encoding ---------------------------------------------------- *)

let class_name = "preference"
let fields = [ "goal"; "role"; "value"; "type"; "referent" ]

let declare schema = Schema.declare schema class_name fields

let encode schema ~goal ~role vote =
  let cls = Sym.intern class_name in
  let arr = Array.make (Schema.arity schema cls) Value.nil in
  let set name v = arr.(Schema.field_index schema cls (Sym.intern name)) <- v in
  set "goal" (Value.Sym goal);
  set "role" (Value.Sym role);
  set "value" vote.value;
  set "type" (Value.Sym (sym_of_ptype vote.ptype));
  (match vote.referent with Some r -> set "referent" r | None -> ());
  arr

let decode w =
  if Sym.name w.Wme.cls <> class_name then None
  else
    (* field order is [fields]: goal role value type referent *)
    match w.Wme.fields with
    | [| Value.Sym goal; Value.Sym role; value; Value.Sym ty; referent |] -> (
      match ptype_of_sym ty with
      | Some ptype ->
        Some
          ( goal,
            role,
            {
              value;
              ptype;
              referent = (if Value.is_nil referent then None else Some referent);
            } )
      | None -> None)
    | _ -> None
