(* Tests for xdb_xpath: lexer/parser, value model, evaluator, patterns. *)

module T = Xdb_xml.Types
module XP = Xdb_xpath.Ast
module L = Xdb_xpath.Lexer
module P = Xdb_xpath.Parser
module V = Xdb_xpath.Value
module E = Xdb_xpath.Eval
module Pat = Xdb_xpath.Pattern

let check = Alcotest.check
let cs = Alcotest.string
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 1e-9

let doc =
  Xdb_xml.Parser.parse
    {|<dept id="d10" xml:lang="en">
<dname>ACCOUNTING</dname>
<loc>NEW YORK</loc>
<employees>
<emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>
<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>
<emp><empno>7954</empno><ename>SMITH</ename><sal>4900</sal></emp>
</employees>
</dept>|}

let root = Xdb_xml.Parser.document_element doc

let ctx = E.make_context root

let eval s = E.eval_string ctx s
let eval_str s = V.string_value (eval s)
let eval_num s = V.number_value (eval s)
let eval_bool s = V.boolean_value (eval s)
let count s = List.length (V.node_set (eval s))

(* ------------------------------------------------------------------ *)
(* lexer / parser                                                      *)
(* ------------------------------------------------------------------ *)

let test_lexer_disambiguation () =
  (* '*' as operator vs name test; 'div' as operator vs element name *)
  let toks = L.tokenize "2 * 3" in
  check cb "multiply" true (List.mem L.Tstar toks);
  let toks = L.tokenize "*" in
  check cb "name test star" true (List.mem (L.Tname "*") toks);
  let toks = L.tokenize "div div div" in
  check ci "div name, div op, div name" 4 (List.length toks)

let test_parser_precedence () =
  check cs "mul binds tighter" "1 + 2 * 3" (XP.to_string (P.parse "1+2*3"));
  (match P.parse "1 + 2 * 3" with
  | XP.Binop (XP.Plus, _, XP.Binop (XP.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "wrong precedence");
  (match P.parse "a or b and c" with
  | XP.Binop (XP.Or, _, XP.Binop (XP.And, _, _)) -> ()
  | _ -> Alcotest.fail "or/and precedence")

let test_parser_paths () =
  (match P.parse "/dept/employees/emp" with
  | XP.Path { absolute = true; steps } -> check ci "three steps" 3 (List.length steps)
  | _ -> Alcotest.fail "expected absolute path");
  (match P.parse "emp[sal > 2000]" with
  | XP.Path { steps = [ { predicates = [ _ ]; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "expected predicate");
  (match P.parse "//emp" with
  | XP.Path { absolute = true; steps = [ { axis = XP.Descendant_or_self; _ }; _ ] } -> ()
  | _ -> Alcotest.fail "expected // expansion");
  (match P.parse "$v/emp" with
  | XP.Filter (XP.Var "v", [], [ _ ]) -> ()
  | _ -> Alcotest.fail "expected var filter path")

let test_parser_node_tests () =
  (match P.parse "text()" with
  | XP.Path { steps = [ { test = XP.Node_type_test XP.Text_node; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "text()");
  (match P.parse "processing-instruction('t')" with
  | XP.Path { steps = [ { test = XP.Node_type_test (XP.Pi_node (Some "t")); _ } ]; _ } -> ()
  | _ -> Alcotest.fail "pi test");
  (match P.parse "@*" with
  | XP.Path { steps = [ { axis = XP.Attribute; test = XP.Star; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "@*")

let test_parser_errors () =
  let fails s = match P.parse s with exception P.Parse_error _ -> true | _ -> false in
  check cb "dangling operator" true (fails "1 +");
  check cb "unbalanced paren" true (fails "(1");
  check cb "unknown axis" true (fails "sideways::a");
  check cb "empty" true (fails "")

(* ------------------------------------------------------------------ *)
(* value model                                                         *)
(* ------------------------------------------------------------------ *)

let test_number_string () =
  check cs "integer format" "5" (V.string_of_number 5.0);
  check cs "negative" "-3" (V.string_of_number (-3.0));
  check cs "nan" "NaN" (V.string_of_number Float.nan);
  check cs "infinity" "Infinity" (V.string_of_number Float.infinity);
  check cs "fraction" "2.5" (V.string_of_number 2.5)

(* XPath 1.0 §4.2: positive and negative zero both convert to "0" *)
let test_negative_zero_string () =
  check cs "string(-0)" "0" (eval_str "string(-0)");
  check cs "string(round(-0.2))" "0" (eval_str "string(round(-0.2))");
  check cs "string(0 * -1)" "0" (eval_str "string(0 * -1)");
  check cs "string_of_number (-0.)" "0" (V.string_of_number (-0.0));
  check cs "still negative below zero" "-1" (eval_str "string(round(-0.6))")

let test_string_number () =
  check cf "simple" 42.0 (V.number_of_string " 42 ");
  check cb "garbage is NaN" true (Float.is_nan (V.number_of_string "x"));
  check cb "empty is NaN" true (Float.is_nan (V.number_of_string ""))

(* XPath 1.0 §4.4: only [-]? Digits ('.' Digits?)? | '.' Digits, with
   space/tab/CR/LF around it; OCaml float syntax beyond that is NaN *)
let test_number_grammar () =
  let nan s = check cb (Printf.sprintf "%S is NaN" s) true (Float.is_nan (V.number_of_string s)) in
  List.iter nan
    [ "1e3"; "0x10"; "inf"; "infinity"; "nan"; "+5"; "1_000"; "-"; "."; "-."; "--1"; "1 2";
      "1.2.3"; " "; "\0127"; "5-"; "1E3"; "0b1" ];
  let num s f = check cf (Printf.sprintf "%S" s) f (V.number_of_string s) in
  num "0" 0.0;
  num "007" 7.0;
  num "-12" (-12.0);
  num "3.25" 3.25;
  num ".5" 0.5;
  num "-.5" (-0.5);
  num "5." 5.0;
  num "\t7\r\n" 7.0;
  num "123456789012345" 123456789012345.0;
  num "12345678901234567890" 12345678901234567890.0;
  num "9007199254740993" (float_of_string "9007199254740993");
  check cb "-0 is negative zero" true (1.0 /. V.number_of_string "-0" = Float.neg_infinity);
  check cb "number('1e3') evaluates to NaN" true (Float.is_nan (eval_num "number('1e3')"));
  check cb "'+5' + 1 evaluates to NaN" true (Float.is_nan (eval_num "'+5' + 1"))

let test_boolean_conversion () =
  check cb "zero false" false (V.boolean_value (V.Num 0.0));
  check cb "nan false" false (V.boolean_value (V.Num Float.nan));
  check cb "nonempty string" true (V.boolean_value (V.Str "x"));
  check cb "empty nodeset" false (V.boolean_value (V.Nodes []))

let test_comparisons () =
  (* node-set vs number: existential *)
  check cb "some sal > 2000" true (eval_bool "employees/emp/sal > 2000");
  check cb "all sal < 1000 false" false (eval_bool "employees/emp/sal < 1000");
  check cb "string equality" true (eval_bool "dname = 'ACCOUNTING'");
  check cb "nodeset vs nodeset" true (eval_bool "employees/emp/sal = employees/emp/sal");
  check cb "flipped relational" true (eval_bool "2000 < employees/emp/sal")

(* ------------------------------------------------------------------ *)
(* axes                                                                *)
(* ------------------------------------------------------------------ *)

let test_axes () =
  check ci "child" 3 (count "employees/emp");
  check ci "descendant" 3 (count "descendant::emp");
  check ci "descendant-or-self" 16 (count "descendant-or-self::*");
  check ci "attribute" 2 (count "@*");
  check cs "attribute value" "d10" (eval_str "@id");
  check ci "parent" 1 (count "dname/parent::dept");
  check ci "ancestor" 2 (count "employees/emp[1]/ancestor::*");
  check ci "following-sibling" 2 (count "dname/following-sibling::*");
  check ci "preceding-sibling" 2 (count "employees/preceding-sibling::*");
  check ci "self" 1 (count "self::dept");
  check ci "self wrong name" 0 (count "self::emp");
  check ci "following" 14 (count "dname/following::*");
  check ci "preceding" 1 (count "loc/preceding::*");
  check ci "double slash from root" 3 (count "//emp")

let test_positional_predicates () =
  check cs "first emp" "CLARK" (eval_str "employees/emp[1]/ename");
  check cs "last()" "SMITH" (eval_str "employees/emp[last()]/ename");
  check cs "position()=2" "MILLER" (eval_str "employees/emp[position() = 2]/ename");
  (* reverse axis proximity: preceding-sibling::*[1] is the nearest *)
  check cs "nearest preceding sibling" "loc"
    (T.local_name (List.hd (E.select (E.make_context root) "employees/preceding-sibling::*[1]")))

(* positional predicates count in proximity order on every reverse axis
   (XPath 1.0 §2.4) — regression for ancestor/ancestor-or-self, which
   used to yield root-first *)
let test_reverse_axis_proximity () =
  let sel s = E.select (E.make_context root) s in
  let name_of s = T.local_name (List.hd (sel s)) in
  check cs "ancestor::*[1] is the nearest" "emp" (name_of "employees/emp[1]/sal/ancestor::*[1]");
  check cs "ancestor::*[2]" "employees" (name_of "employees/emp[1]/sal/ancestor::*[2]");
  check cs "ancestor::*[last()] is the root" "dept"
    (name_of "employees/emp[1]/sal/ancestor::*[last()]");
  check cs "ancestor-or-self::*[1] is self" "sal"
    (name_of "employees/emp[1]/sal/ancestor-or-self::*[1]");
  check cs "ancestor-or-self::*[2]" "emp"
    (name_of "employees/emp[1]/sal/ancestor-or-self::*[2]");
  check ci "name test before the position" 1
    (count "employees/emp[1]/sal/ancestor::employees[1]");
  check cs "preceding-sibling::*[1] is the nearest" "ename"
    (name_of "employees/emp[1]/sal/preceding-sibling::*[1]");
  check cs "preceding-sibling::*[2]" "empno"
    (name_of "employees/emp[1]/sal/preceding-sibling::*[2]");
  check cs "preceding::emp[1] is the nearest" "MILLER"
    (eval_str "employees/emp[3]/preceding::emp[1]/ename");
  (* ...while the final node-set is still in document order *)
  check cs "reverse-axis result sorts to document order" "empno"
    (name_of "employees/emp[1]/sal/preceding-sibling::*")

(* an attribute's parent is its owner element, but it is not one of the
   owner's children, so it has no siblings (XPath 1.0 §2.2) *)
let test_attribute_siblings () =
  check ci "attribute parent" 1 (count "@id/parent::dept");
  check ci "no following siblings" 0 (count "@id/following-sibling::node()");
  check ci "no preceding siblings" 0 (count "@id/preceding-sibling::node()")

(* following/preceding from an attribute context (XPath 1.0 §2.2, §5.1):
   the attribute sits right after its owner's start tag, so its owner's
   descendants follow it and its owner (an ancestor) does not precede it *)
let attr_axes_doc = {|<r><p/><a id="1"><b/><c/></a><d/></r>|}

let attr_axes_cases = [ ("//@id/following::*", "b,c,d,"); ("//@id/preceding::*", "p,") ]

let names_of ns = String.concat "" (List.map (fun n -> T.local_name n ^ ",") ns)

let test_attribute_following_preceding () =
  let d = Xdb_xml.Parser.parse attr_axes_doc in
  List.iter
    (fun (q, want) ->
      check cs ("Eval " ^ q) want (names_of (E.select (E.make_context d) q));
      (* the functional XSLT VM evaluates the same select *)
      let ss =
        Printf.sprintf
          {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="/"><xsl:for-each select="%s"><xsl:value-of select="name()"/>,</xsl:for-each></xsl:template></xsl:stylesheet>|}
          q
      in
      let prog = Xdb_xslt.Compile.compile (Xdb_xslt.Parser.parse ss) in
      check cs ("VM " ^ q) want
        (Xdb_xml.Serializer.node_list_to_string (Xdb_xslt.Vm.transform prog d).T.children))
    attr_axes_cases

let test_chained_predicates () =
  check ci "two predicates" 1 (count "employees/emp[sal > 2000][2]");
  check cs "second highly paid" "SMITH" (eval_str "employees/emp[sal > 2000][2]/ename")

(* ------------------------------------------------------------------ *)
(* functions                                                           *)
(* ------------------------------------------------------------------ *)

let test_string_functions () =
  check cs "concat" "a-b" (eval_str "concat('a', '-', 'b')");
  check cb "starts-with" true (eval_bool "starts-with(dname, 'ACC')");
  check cb "contains" true (eval_bool "contains(loc, 'YORK')");
  check cs "substring-before" "NEW" (eval_str "substring-before(loc, ' ')");
  check cs "substring-after" "YORK" (eval_str "substring-after(loc, ' ')");
  check cs "substring 2 args" "CCOUNTING" (eval_str "substring(dname, 2)");
  check cs "substring 3 args" "CCO" (eval_str "substring(dname, 2, 3)");
  check cs "substring rounding" "234" (eval_str "substring('12345', 1.5, 2.6)");
  check cf "string-length" 10.0 (eval_num "string-length(dname)");
  check cs "normalize-space" "a b" (eval_str "normalize-space('  a   b ')");
  check cs "translate" "ABr" (eval_str "translate('bar', 'ab', 'BA')");
  check cs "translate removal" "br" (eval_str "translate('bar', 'a', '')")

let test_number_functions () =
  check cf "sum" 8650.0 (eval_num "sum(employees/emp/sal)");
  check cf "count" 3.0 (eval_num "count(employees/emp)");
  check cf "floor" 2.0 (eval_num "floor(2.7)");
  check cf "ceiling" 3.0 (eval_num "ceiling(2.1)");
  check cf "round half up" 3.0 (eval_num "round(2.5)");
  check cf "round negative" (-2.0) (eval_num "round(-2.5)");
  check cf "mod" 1.0 (eval_num "7 mod 2");
  check cf "div" 3.5 (eval_num "7 div 2")

let test_rounding_edge_cases () =
  let is_neg_zero f = f = 0.0 && 1.0 /. f = Float.neg_infinity in
  let is_pos_zero f = f = 0.0 && 1.0 /. f = Float.infinity in
  (* XPath 1.0 §4.4: round() of [-0.5, 0) is negative zero *)
  check cb "round(-0.2) is -0" true (is_neg_zero (eval_num "round(-0.2)"));
  check cb "round(-0.5) is -0" true (is_neg_zero (eval_num "round(-0.5)"));
  check cf "round(-0.51)" (-1.0) (eval_num "round(-0.51)");
  check cb "round(0) is +0" true (is_pos_zero (eval_num "round(0)"));
  check cb "round(0.4) is +0" true (is_pos_zero (eval_num "round(0.4)"));
  check cf "round(0.5)" 1.0 (eval_num "round(0.5)");
  (* NaN and infinities pass through round/floor/ceiling *)
  check cb "round(NaN)" true (Float.is_nan (eval_num "round(0 div 0)"));
  check cf "round(+inf)" Float.infinity (eval_num "round(1 div 0)");
  check cf "round(-inf)" Float.neg_infinity (eval_num "round(-1 div 0)");
  check cb "floor(NaN)" true (Float.is_nan (eval_num "floor(0 div 0)"));
  check cf "floor(+inf)" Float.infinity (eval_num "floor(1 div 0)");
  check cb "ceiling(NaN)" true (Float.is_nan (eval_num "ceiling(0 div 0)"));
  check cf "ceiling(-inf)" Float.neg_infinity (eval_num "ceiling(-1 div 0)");
  (* negative zero propagates through floor/ceiling of itself *)
  check cb "floor(-0)" true (eval_num "floor(-0.0)" = 0.0);
  check cb "ceiling(-0.5) is -0" true (is_neg_zero (eval_num "ceiling(-0.5)"))

let test_format_number () =
  check cs "basic" "1234" (eval_str "format-number(1234, '0')");
  check cs "grouping" "1,234,567" (eval_str "format-number(1234567, '#,##0')");
  check cs "fixed fraction" "3.50" (eval_str "format-number(3.5, '0.00')");
  check cs "optional fraction trimmed" "3.5" (eval_str "format-number(3.5, '0.0#')");
  check cs "min integer digits" "007" (eval_str "format-number(7, '000')");
  check cs "percent" "42%" (eval_str "format-number(0.42, '0%')");
  check cs "negative default" "-5" (eval_str "format-number(-5, '0')");
  check cs "negative subpattern" "(5)" (eval_str "format-number(-5, '0;(0)')");
  check cs "rounding" "2.35" (eval_str "format-number(2.345, '0.00')");
  check cs "NaN" "NaN" (eval_str "format-number(0 div 0, '0')")

let test_node_functions () =
  check cs "name" "dept" (eval_str "name()");
  check cs "local-name of arg" "emp" (eval_str "local-name(employees/emp[1])");
  check cs "string of node" "ACCOUNTING" (eval_str "string(dname)");
  check cb "lang" true (eval_bool "lang('en')");
  check cb "boolean not" true (eval_bool "not(false())")

let test_id_function () =
  check ci "id finds element" 1 (count "id('d10')");
  check ci "id no match" 0 (count "id('nope')")

let test_generate_id () =
  let a = eval_str "generate-id(dname)" and b = eval_str "generate-id(loc)" in
  check cb "distinct ids" true (a <> b);
  check cs "stable" a (eval_str "generate-id(dname)")

let test_unknown_function () =
  match eval "frobnicate()" with
  | exception E.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected Eval_error"

let test_variables () =
  let ctx = E.bind_var ctx "limit" (V.Num 2000.0) in
  let v = E.eval ctx (P.parse "count(employees/emp[sal > $limit])") in
  check cf "variable in predicate" 2.0 (V.number_value v);
  match E.eval ctx (P.parse "$missing") with
  | exception E.Eval_error _ -> ()
  | _ -> Alcotest.fail "unbound variable must fail"

(* ------------------------------------------------------------------ *)
(* patterns                                                            *)
(* ------------------------------------------------------------------ *)

let node_of path = List.hd (E.select ctx path)

let test_pattern_matching () =
  let matches pat n = Pat.matches ctx (Pat.parse pat) n in
  let emp = node_of "employees/emp[1]" in
  let sal = node_of "employees/emp[1]/sal" in
  check cb "name" true (matches "emp" emp);
  check cb "wrong name" false (matches "dept" emp);
  check cb "parent step" true (matches "employees/emp" emp);
  check cb "ancestor step" true (matches "dept//sal" sal);
  check cb "wrong parent" false (matches "dname/emp" emp);
  check cb "star" true (matches "*" emp);
  check cb "root pattern" true (matches "/" doc);
  check cb "root not element" false (matches "/" emp);
  check cb "text pattern" true
    (matches "text()" (node_of "dname/text()"));
  check cb "predicate pattern" true (matches "emp[sal > 2000]" emp);
  check cb "predicate pattern false" false
    (matches "emp[sal > 2000]" (node_of "employees/emp[2]"));
  check cb "positional pattern" true (matches "emp[1]" emp);
  check cb "positional pattern false" false (matches "emp[2]" emp)

let test_pattern_priorities () =
  let prio pat =
    match Pat.split (Pat.parse pat) with [ (_, p) ] -> p | _ -> Alcotest.fail "one alt"
  in
  check (Alcotest.float 0.001) "name" 0.0 (prio "emp");
  check (Alcotest.float 0.001) "star" (-0.5) (prio "*");
  check (Alcotest.float 0.001) "node()" (-0.5) (prio "node()");
  check (Alcotest.float 0.001) "multi step" 0.5 (prio "employees/emp");
  check (Alcotest.float 0.001) "predicate" 0.5 (prio "emp[1]")

let test_pattern_union_split () =
  let pat = Pat.parse "dname | loc | employees/emp" in
  check ci "three alternatives" 3 (List.length (Pat.split pat))

let test_pattern_invalid () =
  match Pat.parse "emp + 1" with
  | exception Pat.Invalid_pattern _ -> ()
  | _ -> Alcotest.fail "expected Invalid_pattern"

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_sort_idempotent =
  QCheck.Test.make ~name:"sort_nodes idempotent and deduplicating" ~count:100
    QCheck.(list_of_size Gen.(int_bound 20) (int_bound 13))
    (fun idxs ->
      let all = root :: T.descendants root in
      let nodes = List.filter_map (fun i -> List.nth_opt all i) idxs in
      let s1 = V.sort_nodes nodes in
      let s2 = V.sort_nodes (s1 @ s1) in
      let rec strictly_sorted = function
        | a :: (b :: _ as rest) -> T.compare_order a b < 0 && strictly_sorted rest
        | _ -> true
      in
      List.length s1 = List.length s2
      && List.for_all2 ( == ) s1 s2
      && strictly_sorted s1)

let prop_descendant_parent_inverse =
  QCheck.Test.make ~name:"every descendant's ancestors include the root" ~count:50
    QCheck.(int_bound 13)
    (fun i ->
      let all = T.descendants root in
      match List.nth_opt all i with
      | None -> true
      | Some n -> List.memq root (E.axis_nodes XP.Ancestor n))

(* the printf-free formatter is [string_of_int] on every int *)
let prop_format_int =
  let edges = [ min_int; max_int; 0; 9; -9; 10; -10; min_int + 1; max_int - 1 ] in
  QCheck.Test.make ~name:"format_int = string_of_int" ~count:1000
    QCheck.(oneof [ int; small_signed_int; oneofl edges ])
    (fun n -> V.format_int n = string_of_int n)

(* integral numbers below 1e16 print as "%.0f" did, except -0 → "0" *)
let prop_integral_number_string =
  let integral =
    QCheck.Gen.(
      oneof
        [
          map float_of_int (int_range (-1_000_000) 1_000_000);
          map (fun f -> Float.trunc f) (float_range (-9.999e15) 9.999e15);
          map (fun e -> Float.pow 10. (float_of_int e) -. 1.) (int_range 0 15);
          oneofl [ 0.0; -0.0; 9.999999999999998e15; -9.999999999999998e15 ];
        ])
  in
  QCheck.Test.make ~name:"integral string_of_number = %.0f, zeros print 0" ~count:1000
    (QCheck.make ~print:string_of_float integral)
    (fun f ->
      let expected = if f = 0.0 then "0" else Printf.sprintf "%.0f" f in
      V.string_of_number f = expected)

let prop_xpath_parser_total =
  QCheck.Test.make ~name:"xpath parser is total" ~count:400
    QCheck.(string_gen_of_size Gen.(int_bound 40) Gen.printable)
    (fun s ->
      match P.parse s with
      | _ -> true
      | exception (P.Parse_error _ | L.Lex_error _) -> true)

let () =
  Alcotest.run "xpath"
    [
      ( "syntax",
        [
          Alcotest.test_case "lexer disambiguation" `Quick test_lexer_disambiguation;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "paths" `Quick test_parser_paths;
          Alcotest.test_case "node tests" `Quick test_parser_node_tests;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "values",
        [
          Alcotest.test_case "number→string" `Quick test_number_string;
          Alcotest.test_case "string→number" `Quick test_string_number;
          Alcotest.test_case "boolean conversion" `Quick test_boolean_conversion;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "negative zero prints 0" `Quick test_negative_zero_string;
        ] );
      ( "axes",
        [
          Alcotest.test_case "all axes" `Quick test_axes;
          Alcotest.test_case "positional predicates" `Quick test_positional_predicates;
          Alcotest.test_case "reverse-axis proximity order" `Quick test_reverse_axis_proximity;
          Alcotest.test_case "chained predicates" `Quick test_chained_predicates;
          Alcotest.test_case "attributes have no siblings" `Quick test_attribute_siblings;
          Alcotest.test_case "following/preceding from an attribute" `Quick
            test_attribute_following_preceding;
        ] );
      ( "functions",
        [
          Alcotest.test_case "string functions" `Quick test_string_functions;
          Alcotest.test_case "number functions" `Quick test_number_functions;
          Alcotest.test_case "rounding edge cases" `Quick test_rounding_edge_cases;
          Alcotest.test_case "format-number" `Quick test_format_number;
          Alcotest.test_case "node functions" `Quick test_node_functions;
          Alcotest.test_case "id()" `Quick test_id_function;
          Alcotest.test_case "generate-id()" `Quick test_generate_id;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
          Alcotest.test_case "variables" `Quick test_variables;
          Alcotest.test_case "number() grammar" `Quick test_number_grammar;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "matching" `Quick test_pattern_matching;
          Alcotest.test_case "priorities" `Quick test_pattern_priorities;
          Alcotest.test_case "union split" `Quick test_pattern_union_split;
          Alcotest.test_case "invalid" `Quick test_pattern_invalid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sort_idempotent;
            prop_descendant_parent_inverse;
            prop_xpath_parser_total;
            prop_format_int;
            prop_integral_number_string;
          ] );
    ]
