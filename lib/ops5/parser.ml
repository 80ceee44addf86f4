open Psme_support

exception Parse_error of string * Lexer.loc

type form =
  | Literalize of Sym.t * Sym.t list
  | Prod of Production.t

type state = {
  toks : (Lexer.token * Lexer.loc) array;
  mutable pos : int;
  schema : Schema.t;
}

let triple_fields = [ "identifier"; "attribute"; "value" ]

let peek st = fst st.toks.(st.pos)
let loc st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let err st fmt =
  Format.kasprintf (fun m -> raise (Parse_error (m, loc st))) fmt

let expect st tok what =
  if peek st = tok then advance st else err st "expected %s, found %a" what Lexer.pp_token (peek st)

let sym st =
  match peek st with
  | Lexer.SYM s -> advance st; s
  | t -> err st "expected a symbol, found %a" Lexer.pp_token t

let constant st =
  match peek st with
  | Lexer.SYM s -> advance st; Value.sym s
  | Lexer.INT i -> advance st; Value.Int i
  | Lexer.FLOAT f -> advance st; Value.Float f
  | Lexer.STR s -> advance st; Value.Str s
  | t -> err st "expected a constant, found %a" Lexer.pp_token t

(* --- tests ------------------------------------------------------- *)

let rec parse_test st =
  match peek st with
  | Lexer.VAR v -> advance st; Cond.T_var v
  | Lexer.SYM _ | Lexer.INT _ | Lexer.FLOAT _ | Lexer.STR _ ->
    Cond.T_const (constant st)
  | Lexer.REL r -> (
    advance st;
    match peek st with
    | Lexer.VAR v -> advance st;
      if r = Cond.Eq then Cond.T_var v else Cond.T_rel (r, Cond.Ovar v)
    | _ ->
      let c = constant st in
      if r = Cond.Eq then Cond.T_const c else Cond.T_rel (r, Cond.Oconst c))
  | Lexer.DISJ_OPEN ->
    advance st;
    let rec consts acc =
      if peek st = Lexer.DISJ_CLOSE then (advance st; List.rev acc)
      else consts (constant st :: acc)
    in
    Cond.T_disj (consts [])
  | Lexer.LBRACE ->
    advance st;
    let rec tests acc =
      if peek st = Lexer.RBRACE then (advance st; List.rev acc)
      else tests (parse_test st :: acc)
    in
    Cond.T_conj (tests [])
  | t -> err st "expected a test, found %a" Lexer.pp_token t

(* --- plain OPS5 condition elements ------------------------------- *)

let field_of st cls attr =
  match Schema.field_index st.schema cls (Sym.intern attr) with
  | i -> i
  | exception Not_found ->
    err st "class %a has no attribute ^%s (missing literalize?)" Sym.pp cls attr

(* [Cond.ce] rejects two constant tests on one field; report that as a
   parse error at the CE. *)
let make_ce at cls tests =
  try Cond.ce cls tests
  with Invalid_argument _ ->
    raise
      (Parse_error
         ( Format.asprintf "two constant tests on one field of class %a" Sym.pp cls,
           at ))

let parse_ce_body st =
  (* After the opening paren: class name then ^attr test pairs. *)
  let at = loc st in
  let cls = Sym.intern (sym st) in
  if not (Schema.declared st.schema cls) then
    err st "undeclared class %a" Sym.pp cls;
  let rec pairs acc =
    match peek st with
    | Lexer.CARET attr ->
      advance st;
      let f = field_of st cls attr in
      let t = parse_test st in
      pairs ((f, t) :: acc)
    | Lexer.RPAREN -> advance st; List.rev acc
    | t -> err st "expected ^attribute or ), found %a" Lexer.pp_token t
  in
  make_ce at cls (pairs [])

let rec parse_cond st =
  match peek st with
  | Lexer.LPAREN -> advance st; Cond.Pos (parse_ce_body st)
  | Lexer.DASH -> (
    advance st;
    match peek st with
    | Lexer.LPAREN -> advance st; Cond.Neg (parse_ce_body st)
    | Lexer.LBRACE ->
      advance st;
      let rec group acc =
        if peek st = Lexer.RBRACE then (advance st; List.rev acc)
        else group (parse_cond st :: acc)
      in
      Cond.Ncc (group [])
    | t -> err st "expected ( or { after -, found %a" Lexer.pp_token t)
  | t -> err st "expected a condition, found %a" Lexer.pp_token t

(* --- plain OPS5 actions ------------------------------------------ *)

let parse_term st =
  match peek st with
  | Lexer.VAR v -> advance st; Action.Tvar v
  | Lexer.LPAREN -> (
    advance st;
    match sym st with
    | "genatom" ->
      let prefix = match peek st with Lexer.SYM s -> advance st; s | _ -> "x" in
      expect st Lexer.RPAREN ")";
      Action.Tgensym prefix
    | f -> err st "unknown RHS function %s" f)
  | _ -> Action.Tconst (constant st)

let parse_make_fields st cls =
  let rec pairs acc =
    match peek st with
    | Lexer.CARET attr ->
      advance st;
      let f = field_of st cls attr in
      let t = parse_term st in
      pairs ((f, t) :: acc)
    | Lexer.RPAREN -> advance st; List.rev acc
    | t -> err st "expected ^attribute or ), found %a" Lexer.pp_token t
  in
  pairs []

let parse_action st =
  expect st Lexer.LPAREN "(";
  let kind = sym st in
  match kind with
  | "make" ->
    let cls = Sym.intern (sym st) in
    if not (Schema.declared st.schema cls) then err st "undeclared class %a" Sym.pp cls;
    [ Action.Make (cls, parse_make_fields st cls) ]
  | "remove" -> (
    match peek st with
    | Lexer.INT i -> advance st; expect st Lexer.RPAREN ")"; [ Action.Remove i ]
    | t -> err st "expected CE index, found %a" Lexer.pp_token t)
  | "modify" -> (
    match peek st with
    | Lexer.INT i ->
      advance st;
      (* Modify needs the class of the i-th CE to resolve attributes; the
         caller's production isn't assembled yet, so we defer resolution:
         store the pairs against a pseudo-class below. To keep the parser
         single-pass we require the class name explicitly after the
         index, e.g. (modify 1 block ^state graspable). *)
      let cls = Sym.intern (sym st) in
      if not (Schema.declared st.schema cls) then err st "undeclared class %a" Sym.pp cls;
      [ Action.Modify (i, parse_make_fields st cls) ]
    | t -> err st "expected CE index, found %a" Lexer.pp_token t)
  | "write" ->
    let rec terms acc =
      if peek st = Lexer.RPAREN then (advance st; List.rev acc)
      else terms (parse_term st :: acc)
    in
    [ Action.Write (terms []) ]
  | "halt" -> expect st Lexer.RPAREN ")"; [ Action.Halt ]
  | k -> err st "unknown action %s" k

(* --- Soar sugar forms -------------------------------------------- *)

let declare_triple st cls =
  if not (Schema.declared st.schema cls) then
    Schema.declare st.schema (Sym.name cls) triple_fields
  else if Schema.arity st.schema cls <> 3 then
    err st "class %a is declared as a plain OPS5 class; cannot use in sp form" Sym.pp cls

let attr_value attr = Value.Sym (Sym.intern attr)

(* (class <id> ^a t ^b t2) -> one triple CE per attribute pair. A class
   already literalized with a non-triple layout is parsed as a plain
   OPS5 CE instead (used for the architecture's [preference] wmes). *)
let parse_sugar_ce_body st =
  let at = loc st in
  let cls = Sym.intern (sym st) in
  if Schema.declared st.schema cls && Schema.arity st.schema cls <> 3 then
    let rec plain_pairs acc =
      match peek st with
      | Lexer.CARET attr ->
        advance st;
        let f = field_of st cls attr in
        let t = parse_test st in
        plain_pairs ((f, t) :: acc)
      | Lexer.RPAREN -> advance st; List.rev acc
      | t -> err st "expected ^attribute or ), found %a" Lexer.pp_token t
    in
    [ make_ce at cls (plain_pairs []) ]
  else begin
    declare_triple st cls;
    let id_test =
      match peek st with
      | Lexer.VAR v -> advance st; Cond.T_var v
      | Lexer.SYM _ | Lexer.INT _ -> Cond.T_const (constant st)
      | _ -> err st "expected identifier variable or constant in sugar CE"
    in
    let rec pairs acc =
      match peek st with
      | Lexer.CARET attr ->
        advance st;
        let t = parse_test st in
        pairs ((attr, t) :: acc)
      | Lexer.RPAREN -> advance st; List.rev acc
      | t -> err st "expected ^attribute or ), found %a" Lexer.pp_token t
    in
    let pairs = pairs [] in
    match pairs with
    | [] -> [ Cond.ce cls [ (0, id_test) ] ]
    | _ ->
      List.map
        (fun (attr, t) ->
          Cond.ce cls [ (0, id_test); (1, Cond.T_const (attr_value attr)); (2, t) ])
        pairs
  end

let rec parse_sugar_cond st =
  match peek st with
  | Lexer.LPAREN ->
    advance st;
    List.map (fun ce -> Cond.Pos ce) (parse_sugar_ce_body st)
  | Lexer.DASH -> (
    advance st;
    match peek st with
    | Lexer.LPAREN -> (
      advance st;
      match parse_sugar_ce_body st with
      | [ ce ] -> [ Cond.Neg ce ]
      | ces -> [ Cond.Ncc (List.map (fun ce -> Cond.Pos ce) ces) ])
    | Lexer.LBRACE ->
      advance st;
      let rec group acc =
        if peek st = Lexer.RBRACE then (advance st; List.concat (List.rev acc))
        else group (parse_sugar_cond st :: acc)
      in
      [ Cond.Ncc (group []) ]
    | t -> err st "expected ( or { after -, found %a" Lexer.pp_token t)
  | t -> err st "expected a condition, found %a" Lexer.pp_token t

(* (make class <id> ^a t ^b t) -> one triple Make per pair.
   (write ...) and (halt) pass through. *)
let parse_sugar_action st =
  expect st Lexer.LPAREN "(";
  let kind = sym st in
  match kind with
  | "make" when (match peek st with
                 | Lexer.SYM c ->
                   let c = Sym.intern c in
                   Schema.declared st.schema c && Schema.arity st.schema c <> 3
                 | _ -> false) ->
    (* plain literalized class inside an sp form *)
    let cls = Sym.intern (sym st) in
    [ Action.Make (cls, parse_make_fields st cls) ]
  | "make" ->
    let cls = Sym.intern (sym st) in
    declare_triple st cls;
    let id_term = parse_term st in
    let rec pairs acc =
      match peek st with
      | Lexer.CARET attr ->
        advance st;
        let t = parse_term st in
        pairs ((attr, t) :: acc)
      | Lexer.RPAREN -> advance st; List.rev acc
      | t -> err st "expected ^attribute or ), found %a" Lexer.pp_token t
    in
    let pairs = pairs [] in
    if pairs = [] then err st "sugar make needs at least one ^attribute pair";
    List.map
      (fun (attr, t) ->
        Action.Make (cls, [ (0, id_term); (1, Action.Tconst (attr_value attr)); (2, t) ]))
      pairs
  | "write" ->
    let rec terms acc =
      if peek st = Lexer.RPAREN then (advance st; List.rev acc)
      else terms (parse_term st :: acc)
    in
    [ Action.Write (terms []) ]
  | "halt" -> expect st Lexer.RPAREN ")"; [ Action.Halt ]
  | k -> err st "action %s not allowed in sp form (Soar productions only add wmes)" k

(* --- top level ---------------------------------------------------- *)

let parse_rule st ~sugar =
  let name = Sym.intern (sym st) in
  let rec conds acc =
    if peek st = Lexer.ARROW then (advance st; List.rev acc)
    else if sugar then conds (List.rev_append (parse_sugar_cond st) acc)
    else conds (parse_cond st :: acc)
  in
  let lhs = conds [] in
  let rec actions acc =
    if peek st = Lexer.RPAREN then (advance st; List.rev acc)
    else if sugar then actions (List.rev_append (parse_sugar_action st) acc)
    else actions (List.rev_append (parse_action st) acc)
  in
  let rhs = actions [] in
  try Production.make ~name ~lhs ~rhs () with
  | Invalid_argument m -> err st "%s" m

let parse_form st =
  expect st Lexer.LPAREN "(";
  let kind = sym st in
  match kind with
  | "literalize" ->
    let cls = sym st in
    let rec attrs acc =
      if peek st = Lexer.RPAREN then (advance st; List.rev acc)
      else attrs (sym st :: acc)
    in
    let attrs = attrs [] in
    (try Schema.declare st.schema cls attrs with
    | Invalid_argument m -> err st "%s" m);
    Literalize (Sym.intern cls, List.map Sym.intern attrs)
  | "p" -> Prod (parse_rule st ~sugar:false)
  | "sp" -> Prod (parse_rule st ~sugar:true)
  | k -> err st "unknown top-level form %s" k

let parse_program schema src =
  let st = { toks = Lexer.tokenize src; pos = 0; schema } in
  let rec forms acc =
    if peek st = Lexer.EOF then List.rev acc else forms (parse_form st :: acc)
  in
  forms []

let productions schema src =
  List.filter_map
    (function Prod p -> Some p | Literalize _ -> None)
    (parse_program schema src)

let parse_production schema src =
  match parse_program schema src with
  | [ Prod p ] -> p
  | _ -> invalid_arg "Parser.parse_production: expected exactly one rule"
