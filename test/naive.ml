(* A naive reference matcher: the production-system semantics stated
   without any match algorithm. It recomputes every instantiation from
   working memory by backtracking over the condition elements, and it
   shares no code with lib/rete (from lib/ops5 it reads only the AST,
   [Wme], [Value] and [Sym]), so it is the oracle the Rete's conflict
   sets are checked against.

   Written-order semantics (Production.mli states the same rule):
   - CEs match left to right; within a CE, tests run in field order,
     conjunctions element by element;
   - a variable's first positive occurrence binds it, later occurrences
     test equality;
   - a variable first seen in a negated CE or an NCC group is local to
     that CE or group;
   - a negated CE holds when no wme matches it under the current
     bindings, and an NCC when no full match of its group extends them;
   - an instantiation is the production name plus the timetags of its
     top-level positive CEs, in order. *)

open Psme_support
open Psme_ops5

module Env = Map.Make (String)

(* [=] and [<>] compare values exactly. The ordering relations compare
   numerically when both sides are numbers (an int and a float
   included), and by the total value order otherwise. *)
let holds rel a b =
  let number = function
    | Value.Int i -> Some (float_of_int i)
    | Value.Float f -> Some f
    | Value.Sym _ | Value.Str _ -> None
  in
  let order () =
    match (number a, number b) with
    | Some x, Some y -> compare x y
    | _ -> Value.compare a b
  in
  match rel with
  | Cond.Eq -> Value.equal a b
  | Cond.Ne -> not (Value.equal a b)
  | Cond.Lt -> order () < 0
  | Cond.Le -> order () <= 0
  | Cond.Gt -> order () > 0
  | Cond.Ge -> order () >= 0

(* One test against field value [v]: the environment, extended when the
   test binds, or [None] when it fails. *)
let rec test env v = function
  | Cond.T_const c -> if Value.equal v c then Some env else None
  | Cond.T_disj cs -> if List.exists (Value.equal v) cs then Some env else None
  | Cond.T_rel (rel, Cond.Oconst c) -> if holds rel v c then Some env else None
  | Cond.T_var x | Cond.T_rel (Cond.Eq, Cond.Ovar x) -> (
    match Env.find_opt x env with
    | Some b -> if Value.equal v b then Some env else None
    | None -> Some (Env.add x v env))
  | Cond.T_rel (rel, Cond.Ovar x) -> (
    match Env.find_opt x env with
    | Some b -> if holds rel v b then Some env else None
    | None -> invalid_arg (Printf.sprintf "Naive: <%s> tested before it is bound" x))
  | Cond.T_conj ts ->
    List.fold_left (fun acc t -> Option.bind acc (fun env -> test env v t)) (Some env) ts

let match_ce env (ce : Cond.ce) (w : Wme.t) =
  List.fold_left
    (fun acc (f, t) -> Option.bind acc (fun env -> test env (Wme.field w f) t))
    (Some env) ce.Cond.tests

(* Call [k] on every extension of [env] that satisfies [conds], with
   [tags] the timetags of the positive CEs matched so far, newest
   first. [of_class] lists the wmes of one class. *)
let rec solve of_class env tags conds k =
  match conds with
  | [] -> k tags
  | Cond.Pos ce :: rest ->
    List.iter
      (fun w ->
        match match_ce env ce w with
        | Some env -> solve of_class env (w.Wme.timetag :: tags) rest k
        | None -> ())
      (of_class ce.Cond.cls)
  | Cond.Neg ce :: rest ->
    if not (List.exists (fun w -> match_ce env ce w <> None) (of_class ce.Cond.cls))
    then solve of_class env tags rest k
  | Cond.Ncc group :: rest ->
    if not (satisfiable of_class env group) then solve of_class env tags rest k

and satisfiable of_class env group =
  let exception Found in
  match solve of_class env [] group (fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

(* The conflict set [prods] induce on working memory [wmes]: sorted
   (production name, timetags of the top-level positive CEs). *)
let conflict_set (prods : Production.t list) (wmes : Wme.t list) =
  let by_class = Hashtbl.create 16 in
  List.iter
    (fun (w : Wme.t) ->
      Hashtbl.replace by_class w.Wme.cls
        (w :: Option.value ~default:[] (Hashtbl.find_opt by_class w.Wme.cls)))
    wmes;
  let of_class c = Option.value ~default:[] (Hashtbl.find_opt by_class c) in
  let out = ref [] in
  List.iter
    (fun (p : Production.t) ->
      let name = Sym.name p.Production.name in
      solve of_class Env.empty [] p.Production.lhs (fun tags ->
          out := (name, List.rev tags) :: !out))
    prods;
  List.sort compare !out
