(* Unit tests for the OPS5 language layer: schema, wmes, conditions,
   lexer, parser, working memory. *)

open Psme_support
open Psme_ops5

let test_schema_declare () =
  let s = Schema.create () in
  Schema.declare s "block" [ "name"; "color"; "on" ];
  Alcotest.(check int) "arity" 3 (Schema.arity s (Sym.intern "block"));
  Alcotest.(check int) "field index" 1
    (Schema.field_index s (Sym.intern "block") (Sym.intern "color"));
  Alcotest.(check string) "attr name" "on"
    (Sym.name (Schema.attr_name s (Sym.intern "block") 2));
  Schema.declare s "block" [ "name"; "color"; "on" ] (* same: ok *);
  Alcotest.check_raises "re-declare differently"
    (Invalid_argument "Schema.declare: class block re-declared with different attributes")
    (fun () -> Schema.declare s "block" [ "name" ])

let test_schema_unknown () =
  let s = Schema.create () in
  Alcotest.(check bool) "undeclared" false (Schema.declared s (Sym.intern "nope"));
  (try
     ignore (Schema.arity s (Sym.intern "nope"));
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let test_wme_contents () =
  let s = Fixtures.schema_with () in
  let wm = Wm.create () in
  let a = Fixtures.add_wme s wm "block" [ ("name", Fixtures.sym "b1") ] in
  let b = Fixtures.add_wme s wm "block" [ ("name", Fixtures.sym "b1") ] in
  Alcotest.(check bool) "same contents" true (Wme.same_contents a b);
  Alcotest.(check bool) "different timetags" false (Wme.equal a b);
  Alcotest.(check bool) "content hash agrees" true (Wme.hash a = Wme.hash b)

(* NaN is not equal to itself, yet a wme must be: removing it from a
   contents-keyed table has to find its own entry. *)
let test_wme_contents_nan () =
  let s = Fixtures.schema_with () in
  let wm = Wm.create () in
  let a = Fixtures.add_wme s wm "block" [ ("name", Value.Float Float.nan) ] in
  let b = Fixtures.add_wme s wm "block" [ ("name", Value.Float Float.nan) ] in
  Alcotest.(check bool) "itself" true (Wme.same_contents a a);
  Alcotest.(check bool) "another NaN wme" false (Wme.same_contents a b)

let test_wm_add_remove () =
  let s = Fixtures.schema_with () in
  let wm = Wm.create () in
  let w = Fixtures.add_wme s wm "hand" [ ("state", Fixtures.sym "free") ] in
  Alcotest.(check int) "size" 1 (Wm.size wm);
  Alcotest.(check bool) "mem" true (Wm.mem wm w);
  Wm.remove wm w;
  Alcotest.(check int) "size after remove" 0 (Wm.size wm);
  Alcotest.check_raises "double remove" Not_found (fun () -> Wm.remove wm w)

(* --- lexer -------------------------------------------------------- *)

let lex src = Array.to_list (Array.map fst (Lexer.tokenize src))

let test_lexer_basic () =
  Alcotest.(check bool) "parens and symbols" true
    (lex "(p foo)" = [ Lexer.LPAREN; Lexer.SYM "p"; Lexer.SYM "foo"; Lexer.RPAREN; Lexer.EOF ])

let test_lexer_variables_and_relations () =
  Alcotest.(check bool) "var" true (lex "<x>" = [ Lexer.VAR "x"; Lexer.EOF ]);
  Alcotest.(check bool) "ne" true (lex "<>" = [ Lexer.REL Cond.Ne; Lexer.EOF ]);
  Alcotest.(check bool) "le" true (lex "<=" = [ Lexer.REL Cond.Le; Lexer.EOF ]);
  Alcotest.(check bool) "lt" true (lex "< 3" = [ Lexer.REL Cond.Lt; Lexer.INT 3; Lexer.EOF ]);
  Alcotest.(check bool) "ge" true (lex ">=" = [ Lexer.REL Cond.Ge; Lexer.EOF ]);
  Alcotest.(check bool) "disjunction" true
    (lex "<< red blue >>"
    = [ Lexer.DISJ_OPEN; Lexer.SYM "red"; Lexer.SYM "blue"; Lexer.DISJ_CLOSE; Lexer.EOF ])

let test_lexer_numbers () =
  Alcotest.(check bool) "int" true (lex "42" = [ Lexer.INT 42; Lexer.EOF ]);
  Alcotest.(check bool) "negative" true (lex "-42" = [ Lexer.INT (-42); Lexer.EOF ]);
  Alcotest.(check bool) "float" true (lex "2.5" = [ Lexer.FLOAT 2.5; Lexer.EOF ])

let test_lexer_arrow_dash_symbols () =
  Alcotest.(check bool) "arrow" true (lex "-->" = [ Lexer.ARROW; Lexer.EOF ]);
  Alcotest.(check bool) "dash before paren" true
    (lex "-(block)" = [ Lexer.DASH; Lexer.LPAREN; Lexer.SYM "block"; Lexer.RPAREN; Lexer.EOF ]);
  Alcotest.(check bool) "hyphenated symbol" true
    (lex "eight-puzzle" = [ Lexer.SYM "eight-puzzle"; Lexer.EOF ]);
  Alcotest.(check bool) "caret attr" true
    (lex "^problem-space" = [ Lexer.CARET "problem-space"; Lexer.EOF ])

let test_lexer_strings_comments () =
  Alcotest.(check bool) "ops5 string" true (lex "|hi there|" = [ Lexer.STR "hi there"; Lexer.EOF ]);
  Alcotest.(check bool) "comment skipped" true (lex "; nothing\n42" = [ Lexer.INT 42; Lexer.EOF ])

(* --- parser ------------------------------------------------------- *)

let test_parse_graspable () =
  let s = Fixtures.schema_with () in
  let p = Parser.parse_production s Fixtures.graspable_src in
  Alcotest.(check string) "name" "blue-block-is-graspable" (Sym.name p.Production.name);
  Alcotest.(check int) "num CEs" 3 (Production.num_ces p);
  Alcotest.(check (list string)) "bound vars" [ "x" ] (Production.bound_vars p);
  match p.Production.lhs with
  | [ Cond.Pos _; Cond.Neg _; Cond.Pos _ ] -> ()
  | _ -> Alcotest.fail "expected pos/neg/pos structure"

let test_parse_predicates_disjunctions () =
  let s = Fixtures.schema_with () in
  let p =
    Parser.parse_production s
      {|(p preds
          (block ^name <x> ^color << red blue >>)
          (block ^name <> <x> ^on <x> ^state { <s> <> held })
          -->
          (write <x> <s>))|}
  in
  Alcotest.(check int) "two CEs" 2 (Production.num_ces p);
  Alcotest.(check (list string)) "binds x then s" [ "x"; "s" ] (Production.bound_vars p)

let test_parse_ncc () =
  let s = Fixtures.schema_with () in
  let p =
    Parser.parse_production s
      {|(p conj-neg
          (hand ^state free)
          -{(block ^name <b> ^color blue) (block ^on <b>)}
          -->
          (write ok))|}
  in
  (match p.Production.lhs with
  | [ Cond.Pos _; Cond.Ncc [ Cond.Pos _; Cond.Pos _ ] ] -> ()
  | _ -> Alcotest.fail "expected NCC group");
  Alcotest.(check int) "CE count descends into NCC" 3 (Production.num_ces p)

let test_parse_errors () =
  let s = Fixtures.schema_with () in
  let expect_parse_error src =
    try
      ignore (Parser.parse_production s src);
      Alcotest.fail "expected Parse_error"
    with Parser.Parse_error _ -> ()
  in
  expect_parse_error "(p bad (nonexistent ^a 1) --> (halt))";
  expect_parse_error "(p bad (block ^nonexistent 1) --> (halt))";
  expect_parse_error "(p bad (block ^name x) --> (make nonexistent ^a 1))";
  (* RHS with unbound variable *)
  expect_parse_error "(p bad (block ^name b1) --> (write <nope>))";
  (* first condition negated *)
  expect_parse_error "(p bad -(block ^name b1) (hand ^state free) --> (halt))"

let test_parse_literalize_inline () =
  let s = Schema.create () in
  let forms =
    Parser.parse_program s
      {|(literalize thing size)
        (p big (thing ^size > 10) --> (halt))|}
  in
  Alcotest.(check int) "two forms" 2 (List.length forms);
  Alcotest.(check bool) "class declared" true (Schema.declared s (Sym.intern "thing"))

let test_parse_sp_sugar () =
  let s = Schema.create () in
  let p =
    Parser.parse_production s
      {|(sp monitor
          (goal <g> ^problem-space <p> ^state <s>)
          (state <s> ^object <o>)
          -->
          (make state <s> ^marked <o>))|}
  in
  (* (goal ...) expands into 2 CEs, (state ...) into 1. *)
  Alcotest.(check int) "expanded CEs" 3 (Production.num_ces p);
  Alcotest.(check int) "triple arity" 3 (Schema.arity s (Sym.intern "goal"));
  Alcotest.(check (list string)) "vars" [ "g"; "p"; "s"; "o" ] (Production.bound_vars p)

let test_parse_sp_negation_conjunctive () =
  let s = Schema.create () in
  let p =
    Parser.parse_production s
      {|(sp neg
          (goal <g> ^state <s>)
          -(state <s> ^blocked yes ^frozen yes)
          -->
          (make goal <g> ^ok yes))|}
  in
  match p.Production.lhs with
  | [ Cond.Pos _; Cond.Ncc [ Cond.Pos _; Cond.Pos _ ] ] -> ()
  | _ -> Alcotest.fail "multi-attribute negated sugar CE should become an NCC"

let test_parse_sp_single_negation () =
  let s = Schema.create () in
  let p =
    Parser.parse_production s
      {|(sp neg1
          (goal <g> ^state <s>)
          -(state <s> ^blocked yes)
          -->
          (make goal <g> ^ok yes))|}
  in
  match p.Production.lhs with
  | [ Cond.Pos _; Cond.Neg _ ] -> ()
  | _ -> Alcotest.fail "single-attribute negated sugar CE should stay a Neg"

let test_production_validation () =
  let s = Fixtures.schema_with () in
  (* remove index out of range *)
  try
    ignore (Parser.parse_production s "(p bad (block ^name b1) --> (remove 2))");
    Alcotest.fail "expected failure"
  with Parser.Parse_error _ -> ()

let test_positive_ce_indexing () =
  let s = Fixtures.schema_with () in
  let p = Parser.parse_production s Fixtures.graspable_src in
  let ce1 = Production.positive_ce p 1 in
  Alcotest.(check string) "first positive CE class" "block" (Sym.name ce1.Cond.cls);
  let ce2 = Production.positive_ce p 2 in
  Alcotest.(check string) "second positive CE class (negation skipped)" "hand"
    (Sym.name ce2.Cond.cls)

let test_cond_eval_relation () =
  let open Cond in
  Alcotest.(check bool) "int lt" true (eval_relation Lt (Value.int 2) (Value.int 3));
  Alcotest.(check bool) "int ge" false (eval_relation Ge (Value.int 2) (Value.int 3));
  Alcotest.(check bool) "float/int mix" true
    (eval_relation Gt (Value.Float 3.5) (Value.int 3));
  Alcotest.(check bool) "ne syms" true
    (eval_relation Ne (Value.sym "a") (Value.sym "b"))

let test_count_ces_nested () =
  let s = Fixtures.schema_with () in
  let p =
    Parser.parse_production s
      {|(p nested
          (hand ^state free)
          -{(block ^name <b>) -{(block ^on <b>) (block ^color blue)}}
          -->
          (halt))|}
  in
  Alcotest.(check int) "nested NCC counting" 4 (Production.num_ces p)

let suite =
  [
    Alcotest.test_case "schema declare" `Quick test_schema_declare;
    Alcotest.test_case "schema unknown" `Quick test_schema_unknown;
    Alcotest.test_case "wme contents vs identity" `Quick test_wme_contents;
    Alcotest.test_case "wme contents: NaN field" `Quick test_wme_contents_nan;
    Alcotest.test_case "wm add/remove" `Quick test_wm_add_remove;
    Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer vars/relations" `Quick test_lexer_variables_and_relations;
    Alcotest.test_case "lexer numbers" `Quick test_lexer_numbers;
    Alcotest.test_case "lexer arrow/dash/symbols" `Quick test_lexer_arrow_dash_symbols;
    Alcotest.test_case "lexer strings/comments" `Quick test_lexer_strings_comments;
    Alcotest.test_case "parse graspable" `Quick test_parse_graspable;
    Alcotest.test_case "parse predicates/disjunctions" `Quick test_parse_predicates_disjunctions;
    Alcotest.test_case "parse NCC" `Quick test_parse_ncc;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse literalize inline" `Quick test_parse_literalize_inline;
    Alcotest.test_case "parse sp sugar" `Quick test_parse_sp_sugar;
    Alcotest.test_case "parse sp conjunctive negation" `Quick test_parse_sp_negation_conjunctive;
    Alcotest.test_case "parse sp single negation" `Quick test_parse_sp_single_negation;
    Alcotest.test_case "production validation" `Quick test_production_validation;
    Alcotest.test_case "positive CE indexing" `Quick test_positive_ce_indexing;
    Alcotest.test_case "relation evaluation" `Quick test_cond_eval_relation;
    Alcotest.test_case "nested NCC CE count" `Quick test_count_ces_nested;
  ]
