open Psme_support
open Psme_ops5

type creator = {
  c_conds : Wme.t list;
  c_level : int;
}

let backtrace ~creator_of ~level_of ~target_level ~seeds =
  let visited = Hashtbl.create 64 in
  let grounds = ref [] in
  let rec visit w =
    if not (Hashtbl.mem visited w.Wme.timetag) then begin
      Hashtbl.replace visited w.Wme.timetag ();
      if level_of w <= target_level then grounds := w :: !grounds
      else
        match creator_of w with
        | Some c -> List.iter visit c.c_conds
        | None -> ()  (* architecture wme with no recorded provenance *)
    end
  in
  List.iter visit seeds;
  List.sort Wme.compare !grounds

let build schema ~is_id ~name ~grounds ~results =
  if grounds = [] then None
  else begin
    let var_of = Hashtbl.create 16 in
    let next_var = ref 0 in
    let variablize v =
      if is_id v then begin
        match Hashtbl.find_opt var_of v with
        | Some name -> Cond.T_var name
        | None ->
          incr next_var;
          let name = Printf.sprintf "v%d" !next_var in
          Hashtbl.replace var_of v name;
          Cond.T_var name
      end
      else Cond.T_const v
    in
    let lhs =
      List.map
        (fun w ->
          let tests = ref [] in
          Array.iteri
            (fun i v -> if not (Value.is_nil v) then tests := (i, variablize v) :: !tests)
            w.Wme.fields;
          Cond.Pos (Cond.ce w.Wme.cls (List.rev !tests)))
        grounds
    in
    (* Identifiers bound by the conditions; result ids outside this set
       are minted fresh at fire time. *)
    let rhs =
      List.map
        (fun (cls, fields) ->
          let assigns = ref [] in
          Array.iteri
            (fun i v ->
              if not (Value.is_nil v) then
                let term =
                  if is_id v then
                    match Hashtbl.find_opt var_of v with
                    | Some name -> Action.Tvar name
                    | None -> Action.Tgensym "c"
                  else Action.Tconst v
                in
                assigns := (i, term) :: !assigns)
            fields;
          Action.Make (cls, List.rev !assigns))
        results
    in
    ignore schema;
    match Production.make ~is_chunk:true ~name ~lhs ~rhs () with
    | p -> Some p
    | exception Invalid_argument _ -> None
  end

(* --- duplicate detection ---------------------------------------------- *)

(* Two chunks are duplicates when they are equal up to a consistent
   renaming of variables. Both functions number variables in order of
   first occurrence (LHS then RHS), so neither renders nor copies the
   production. *)

let mix h x = ((h * 31) + x) land max_int

let number tbl v =
  match Hashtbl.find_opt tbl v with
  | Some n -> n
  | None ->
    let n = Hashtbl.length tbl in
    Hashtbl.replace tbl v n;
    n

let form_hash p =
  let vars = Hashtbl.create 16 in
  let var h v = mix (mix h 1) (number vars v) in
  let value h v = mix (mix h 2) (Value.hash v) in
  let rec test h = function
    | Cond.T_const v -> value h v
    | Cond.T_var v -> var h v
    | Cond.T_rel (r, Cond.Oconst c) -> value (mix (mix h 3) (Hashtbl.hash r)) c
    | Cond.T_rel (r, Cond.Ovar v) -> var (mix (mix h 4) (Hashtbl.hash r)) v
    | Cond.T_disj vs -> List.fold_left value (mix h 5) vs
    | Cond.T_conj ts -> List.fold_left test (mix h 6) ts
  in
  let ce h (ce : Cond.ce) =
    List.fold_left
      (fun h (f, t) -> test (mix h f) t)
      (mix h (Sym.hash ce.Cond.cls))
      ce.Cond.tests
  in
  let rec cond h = function
    | Cond.Pos c -> ce (mix h 7) c
    | Cond.Neg c -> ce (mix h 8) c
    | Cond.Ncc g -> List.fold_left cond (mix h 9) g
  in
  let term h = function
    | Action.Tconst v -> value h v
    | Action.Tvar v -> var h v
    | Action.Tgensym prefix -> mix (mix h 10) (Hashtbl.hash prefix)
  in
  let assigns = List.fold_left (fun h (f, t) -> term (mix h f) t) in
  let action h = function
    | Action.Make (cls, fields) -> assigns (mix (mix h 11) (Sym.hash cls)) fields
    | Action.Remove i -> mix (mix h 12) i
    | Action.Modify (i, fields) -> assigns (mix (mix h 13) i) fields
    | Action.Write terms -> List.fold_left term (mix h 14) terms
    | Action.Halt -> mix h 15
  in
  let h = List.fold_left cond 0 p.Production.lhs in
  List.fold_left action (mix h 16) p.Production.rhs

let same_form a b =
  let va = Hashtbl.create 16 and vb = Hashtbl.create 16 in
  let var x y = number va x = number vb y in
  let rec list eq xs ys =
    match xs, ys with
    | [], [] -> true
    | x :: xs, y :: ys -> eq x y && list eq xs ys
    | [], _ :: _ | _ :: _, [] -> false
  in
  let rec test t u =
    match t, u with
    | Cond.T_const x, Cond.T_const y -> Value.equal x y
    | Cond.T_var x, Cond.T_var y -> var x y
    | Cond.T_rel (r, Cond.Oconst x), Cond.T_rel (s, Cond.Oconst y) -> r = s && Value.equal x y
    | Cond.T_rel (r, Cond.Ovar x), Cond.T_rel (s, Cond.Ovar y) -> r = s && var x y
    | Cond.T_disj xs, Cond.T_disj ys -> list Value.equal xs ys
    | Cond.T_conj ts, Cond.T_conj us -> list test ts us
    | (Cond.T_const _ | Cond.T_var _ | Cond.T_rel _ | Cond.T_disj _ | Cond.T_conj _), _ ->
      false
  in
  let field eq (f, x) (g, y) = f = g && eq x y in
  let ce (c : Cond.ce) (d : Cond.ce) =
    Sym.equal c.Cond.cls d.Cond.cls && list (field test) c.Cond.tests d.Cond.tests
  in
  let rec cond c d =
    match c, d with
    | Cond.Pos c, Cond.Pos d | Cond.Neg c, Cond.Neg d -> ce c d
    | Cond.Ncc g, Cond.Ncc h -> list cond g h
    | (Cond.Pos _ | Cond.Neg _ | Cond.Ncc _), _ -> false
  in
  let term t u =
    match t, u with
    | Action.Tconst x, Action.Tconst y -> Value.equal x y
    | Action.Tvar x, Action.Tvar y -> var x y
    | Action.Tgensym p, Action.Tgensym q -> String.equal p q
    | (Action.Tconst _ | Action.Tvar _ | Action.Tgensym _), _ -> false
  in
  let action x y =
    match x, y with
    | Action.Make (c, fs), Action.Make (d, gs) -> Sym.equal c d && list (field term) fs gs
    | Action.Remove i, Action.Remove j -> i = j
    | Action.Modify (i, fs), Action.Modify (j, gs) -> i = j && list (field term) fs gs
    | Action.Write ts, Action.Write us -> list term ts us
    | Action.Halt, Action.Halt -> true
    | (Action.Make _ | Action.Remove _ | Action.Modify _ | Action.Write _ | Action.Halt), _ ->
      false
  in
  list cond a.Production.lhs b.Production.lhs && list action a.Production.rhs b.Production.rhs
