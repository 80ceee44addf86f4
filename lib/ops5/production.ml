open Psme_support

type t = {
  name : Sym.t;
  lhs : Cond.t list;
  rhs : Action.t list;
  is_chunk : bool;
}

(* Variables bound by [T_var] tests of positive CEs, in order. A
   variable's first (binding) occurrence may be in the same CE as later
   equality uses; for validation we only need the set. *)
let bound_vars_of_lhs lhs =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec scan_test = function
    | Cond.T_var v ->
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        out := v :: !out
      end
    | Cond.T_conj ts -> List.iter scan_test ts
    | Cond.T_const _ | Cond.T_rel _ | Cond.T_disj _ -> ()
  in
  let rec scan = function
    | Cond.Pos ce -> List.iter (fun (_, t) -> scan_test t) ce.Cond.tests
    | Cond.Neg _ -> ()
    | Cond.Ncc group -> List.iter scan group
  in
  List.iter scan lhs;
  List.rev !out

let validate name lhs rhs =
  let fail fmt =
    Format.kasprintf
      (fun msg -> invalid_arg (Printf.sprintf "production %s: %s" (Sym.name name) msg))
      fmt
  in
  (match lhs with
  | [] -> fail "empty LHS"
  | Cond.Pos _ :: _ -> ()
  | (Cond.Neg _ | Cond.Ncc _) :: _ -> fail "first condition must be positive");
  let bound = bound_vars_of_lhs lhs in
  let is_bound v = List.mem v bound in
  (* Predicate-operand and negation variables must be bound positively. *)
  let rec check_cond = function
    | Cond.Pos ce | Cond.Neg ce ->
      List.iter
        (fun (_, test) ->
          let rec chk = function
            | Cond.T_rel (_, Cond.Ovar v) ->
              if not (is_bound v) then fail "unbound variable <%s> in predicate" v
            | Cond.T_conj ts -> List.iter chk ts
            | Cond.T_var _ | Cond.T_const _ | Cond.T_rel (_, Cond.Oconst _)
            | Cond.T_disj _ -> ()
          in
          chk test)
        ce.Cond.tests
    | Cond.Ncc group -> List.iter check_cond group
  in
  List.iter check_cond lhs;
  let check_neg_vars = function
    | Cond.Pos _ -> ()
    | Cond.Neg ce ->
      List.iter
        (fun v ->
          if not (is_bound v) then
            fail "variable <%s> of a negated CE is never bound positively" v)
        (Cond.vars_of_ce ce)
    | Cond.Ncc group ->
      (* Inside an NCC, positive CEs of the group may bind locally. *)
      let local = bound_vars_of_lhs group in
      List.iter
        (fun v ->
          if not (is_bound v || List.mem v local) then
            fail "variable <%s> of an NCC group is never bound" v)
        (List.concat_map Cond.vars group)
  in
  List.iter check_neg_vars lhs;
  let n_pos = List.length (Cond.positives lhs) in
  List.iter
    (fun action ->
      List.iter
        (fun v ->
          if not (is_bound v) then fail "RHS uses unbound variable <%s>" v)
        (Action.vars action);
      match action with
      | Action.Remove i | Action.Modify (i, _) ->
        if i < 1 || i > n_pos then fail "RHS index %d out of range (1..%d)" i n_pos
      | Action.Make _ | Action.Write _ | Action.Halt -> ())
    rhs

let negates_before_binding t =
  let pos_binds = function
    | Cond.Pos _ as c -> bound_vars_of_lhs [ c ]
    | Cond.Neg _ | Cond.Ncc _ -> []
  in
  let rec go before = function
    | [] -> false
    | c :: rest ->
      (match c with
      | Cond.Pos _ -> false
      | Cond.Neg _ | Cond.Ncc _ ->
        let later = List.concat_map pos_binds rest in
        List.exists
          (fun v -> (not (List.mem v before)) && List.mem v later)
          (Cond.vars c))
      || go (pos_binds c @ before) rest
  in
  go [] t.lhs

let make ?(is_chunk = false) ~name ~lhs ~rhs () =
  validate name lhs rhs;
  { name; lhs; rhs; is_chunk }

let num_ces t = Cond.count_ces t.lhs
let bound_vars t = bound_vars_of_lhs t.lhs

let positive_ce t n =
  match List.nth_opt (Cond.positives t.lhs) (n - 1) with
  | Some ce -> ce
  | None -> invalid_arg "Production.positive_ce"

let pp schema ppf t =
  Format.fprintf ppf "@[<v 2>(p %a" Sym.pp t.name;
  List.iter (fun c -> Format.fprintf ppf "@,%a" (Cond.pp schema) c) t.lhs;
  Format.fprintf ppf "@,-->";
  List.iter (fun a -> Format.fprintf ppf "@,%a" (Action.pp schema) a) t.rhs;
  Format.fprintf ppf ")@]"
