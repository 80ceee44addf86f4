open Psme_support

type relation = Eq | Ne | Lt | Le | Gt | Ge

type operand =
  | Oconst of Value.t
  | Ovar of string

type test =
  | T_const of Value.t
  | T_var of string
  | T_rel of relation * operand
  | T_disj of Value.t list
  | T_conj of test list

type ce = {
  cls : Sym.t;
  tests : (int * test) list;
}

type t =
  | Pos of ce
  | Neg of ce
  | Ncc of t list

let ce cls tests =
  let tests = List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare a b) tests in
  (* sorted, so a field's tests are contiguous: carry the field of the
     last constant seen, whatever tests lie between it and the next *)
  let rec check const_fld = function
    | (f, T_const _) :: rest ->
      if f = const_fld then
        invalid_arg "Cond.ce: two constant tests on the same field";
      check f rest
    | _ :: rest -> check const_fld rest
    | [] -> ()
  in
  check (-1) tests;
  { cls; tests }

let eval_relation rel actual expected =
  match rel with
  | Eq -> Value.equal actual expected
  | Ne -> not (Value.equal actual expected)
  | Lt | Le | Gt | Ge -> (
    let cmp =
      match Value.numeric actual, Value.numeric expected with
      | Some a, Some b -> Stdlib.compare a b
      | _ -> Value.compare actual expected
    in
    match rel with
    | Lt -> cmp < 0
    | Le -> cmp <= 0
    | Gt -> cmp > 0
    | Ge -> cmp >= 0
    | Eq | Ne -> assert false)

(* --- normalization helpers (static analysis) ----------------------- *)

(* Flatten a test ([T_conj] included) into its atomic constraints, in
   evaluation order. *)
let rec atoms = function
  | T_conj ts -> List.concat_map atoms ts
  | t -> [ t ]

(* A CE's tests grouped per field: conjunctions flattened, fields in
   ascending order (the order [ce] already guarantees), atoms within a
   field deduplicated structurally. *)
let tests_by_field c =
  let by_field = Hashtbl.create 8 in
  let fields = ref [] in
  List.iter
    (fun (f, t) ->
      if not (Hashtbl.mem by_field f) then fields := f :: !fields;
      Hashtbl.replace by_field f
        (Option.value ~default:[] (Hashtbl.find_opt by_field f) @ atoms t))
    c.tests;
  List.rev_map
    (fun f ->
      let ts = Hashtbl.find by_field f in
      let rec dedup seen = function
        | [] -> List.rev seen
        | t :: rest ->
          if List.exists (fun t' -> t' = t) seen then dedup seen rest
          else dedup (t :: seen) rest
      in
      (f, dedup [] ts))
    !fields

(* Canonical form for structural comparison: one entry per field, atoms
   flattened, deduplicated and sorted. Two CEs with the same canonical
   form accept exactly the same wmes. *)
let normalize_ce c =
  {
    c with
    tests =
      List.map
        (fun (f, ts) ->
          match List.sort Stdlib.compare ts with
          | [ t ] -> (f, t)
          | ts -> (f, T_conj ts))
        (tests_by_field c);
  }

let rec test_is_alpha = function
  | T_const _ | T_disj _ -> true
  | T_rel (_, Oconst _) -> true
  | T_rel (_, Ovar _) | T_var _ -> false
  | T_conj ts -> List.for_all test_is_alpha ts

let rec vars_of_test = function
  | T_var v -> [ v ]
  | T_rel (_, Ovar v) -> [ v ]
  | T_conj ts -> List.concat_map vars_of_test ts
  | T_const _ | T_rel (_, Oconst _) | T_disj _ -> []

let vars_of_ce ce = List.concat_map (fun (_, t) -> vars_of_test t) ce.tests

let rec vars = function
  | Pos ce | Neg ce -> vars_of_ce ce
  | Ncc group -> List.concat_map vars group

let rec positives conds =
  List.concat_map
    (function
      | Pos ce -> [ ce ]
      | Neg _ -> []
      | Ncc group -> positives group)
    conds

let rec count_ces conds =
  List.fold_left
    (fun acc c ->
      acc
      +
      match c with
      | Pos _ | Neg _ -> 1
      | Ncc group -> count_ces group)
    0 conds

let pp_relation ppf = function
  | Eq -> Format.pp_print_string ppf "="
  | Ne -> Format.pp_print_string ppf "<>"
  | Lt -> Format.pp_print_string ppf "<"
  | Le -> Format.pp_print_string ppf "<="
  | Gt -> Format.pp_print_string ppf ">"
  | Ge -> Format.pp_print_string ppf ">="

let pp_operand ppf = function
  | Oconst v -> Value.pp ppf v
  | Ovar v -> Format.fprintf ppf "<%s>" v

let rec pp_test ppf = function
  | T_const v -> Value.pp ppf v
  | T_var v -> Format.fprintf ppf "<%s>" v
  | T_rel (r, o) -> Format.fprintf ppf "%a %a" pp_relation r pp_operand o
  | T_disj vs ->
    Format.fprintf ppf "<< %a >>"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Value.pp)
      vs
  | T_conj ts ->
    Format.fprintf ppf "{ %a }"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_test)
      ts

let pp_ce schema ppf ce =
  Format.fprintf ppf "(%a" Sym.pp ce.cls;
  List.iter
    (fun (i, t) ->
      Format.fprintf ppf " ^%a %a" Sym.pp (Schema.attr_name schema ce.cls i) pp_test t)
    ce.tests;
  Format.fprintf ppf ")"

let rec pp schema ppf = function
  | Pos ce -> pp_ce schema ppf ce
  | Neg ce -> Format.fprintf ppf "-%a" (pp_ce schema) ce
  | Ncc group ->
    Format.fprintf ppf "-{%a}"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space (pp schema))
      group
