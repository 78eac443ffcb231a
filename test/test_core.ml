(* Tests for xdb_core: the paper's contribution — partial evaluation,
   execution graph, the §3.3–3.7 rewrite techniques, the pipeline, and the
   Example 1 / Example 2 reproductions. *)

module S = Xdb_schema.Types
module Q = Xdb_xquery.Ast
module A = Xdb_rel.Algebra
module P = Xdb_rel.Publish
module V = Xdb_rel.Value
module T = Xdb_rel.Table
module X = Xdb_xml.Types
module C = Xdb_xslt.Compile
module TR = Xdb_core.Trace
module GEN = Xdb_core.Xslt2xquery
module O = Xdb_core.Options
module PL = Xdb_core.Pipeline

let check = Alcotest.check
let cs = Alcotest.string
let cb = Alcotest.bool
let ci = Alcotest.int

let contains sub s =
  let rec go i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || go (i + 1))
  in
  go 0

let compile_ss body =
  C.compile
    (Xdb_xslt.Parser.parse
       (Printf.sprintf
          {|<?xml version="1.0"?><xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">%s</xsl:stylesheet>|}
          body))

let dept_schema =
  S.make ~root:"dept"
    [
      S.node "dept" [ S.particle "dname"; S.particle "loc"; S.particle "employees" ];
      S.node "employees" [ S.particle ~occurs:S.many "emp" ];
      S.node "emp" [ S.particle "empno"; S.particle "ename"; S.particle "sal" ];
      S.leaf "dname";
      S.leaf "loc";
      S.leaf "empno";
      S.leaf "ename";
      S.leaf "sal";
    ]

let example1_body =
  {|<xsl:template match="dept">
<H1>HIGHLY PAID DEPT EMPLOYEES</H1>
<xsl:apply-templates/>
</xsl:template>
<xsl:template match="dname">
<H2>Department name: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="loc">
<H2>Department location: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="employees">
<H2>Employees Table</H2>
<table border="2">
<td><b>EmpNo</b></td>
<td><b>Name</b></td>
<td><b>Weekly Salary</b></td>
<xsl:apply-templates select="emp[sal &gt; 2000]"/>
</table>
</xsl:template>
<xsl:template match = "emp">
<tr>
<td><xsl:value-of select="empno"/></td>
<td><xsl:value-of select="ename"/></td>
<td><xsl:value-of select="sal"/></td>
</tr>
</xsl:template>
<xsl:template match="text()">
<xsl:value-of select="."/>
</xsl:template>|}

(* ------------------------------------------------------------------ *)
(* trace / execution graph (§4.3)                                      *)
(* ------------------------------------------------------------------ *)

let test_execution_graph () =
  let prog = compile_ss example1_body in
  let sample = Xdb_schema.Sample.generate dept_schema in
  let graph = TR.run prog sample in
  check cb "acyclic" false graph.TR.recursive;
  (* root state is the builtin on the document, then dept template *)
  check cb "root is builtin" true (graph.TR.root.TR.template = None);
  check ci "root has one transition" 1 (List.length graph.TR.root.TR.transitions);
  (* conservative predicate assumption dispatched emp despite [sal > 2000] *)
  let printed = TR.to_string graph in
  check cb "emp reached" true (contains "on <emp>" printed);
  (* 5 user templates instantiated (text() never fires: no sample text under
     matched elements appears via apply with select) *)
  check cb "several instantiated" true (List.length graph.TR.instantiated >= 4)

let test_recursion_detected () =
  let prog =
    compile_ss
      {|<xsl:template match="numbers">
<xsl:call-template name="go"><xsl:with-param name="n" select="3"/></xsl:call-template>
</xsl:template>
<xsl:template name="go">
<xsl:param name="n" select="0"/>
<xsl:if test="$n &gt; 0">
<v/><xsl:call-template name="go"><xsl:with-param name="n" select="$n - 1"/></xsl:call-template>
</xsl:if>
</xsl:template>|}
  in
  let schema = S.make ~root:"numbers" [ S.leaf "numbers" ] in
  let sample = Xdb_schema.Sample.generate schema in
  let graph = TR.run prog sample in
  check cb "recursion flagged" true graph.TR.recursive

(* ------------------------------------------------------------------ *)
(* translation modes                                                   *)
(* ------------------------------------------------------------------ *)

let test_inline_mode_selected () =
  let prog = compile_ss example1_body in
  let result = GEN.translate prog ~schema:dept_schema in
  check cb "inline" true (result.GEN.mode = GEN.Mode_inline);
  check cb "no user functions" true (result.GEN.query.Q.funs = []);
  check cb "no calls in body" false (Q.has_user_calls result.GEN.query.Q.body);
  (* residual predicate survives (conservative §4.1) *)
  let printed = Xdb_xquery.Pretty.prog_syntax result.GEN.query in
  check cb "predicate residual" true (contains "sal > 2000" printed);
  (* cardinality: LET for dname (one), FOR for emp (many) — Table 15 *)
  check cb "let for singleton" true (contains "let $" printed);
  check cb "for over emp" true (contains "for $" printed)

let test_builtin_compaction () =
  (* paper §3.6, Tables 20–21: the empty stylesheet *)
  let prog = compile_ss "" in
  let result = GEN.translate prog ~schema:dept_schema in
  check cb "compact mode" true (result.GEN.mode = GEN.Mode_builtin_compact);
  let printed = Xdb_xquery.Pretty.prog_syntax result.GEN.query in
  check cb "string-join over //text()" true (contains "string-join" printed);
  (* equivalence with the VM on a real document *)
  let doc =
    Xdb_xml.Parser.parse
      "<dept><dname>A</dname><loc>B</loc><employees><emp><empno>1</empno><ename>N</ename><sal>2</sal></emp></employees></dept>"
  in
  let vm_out =
    Xdb_xml.Serializer.node_list_to_string (Xdb_xslt.Vm.transform prog doc).X.children
  in
  let q_out =
    Xdb_xml.Serializer.node_list_to_string
      (Xdb_xquery.Eval.run_to_nodes result.GEN.query ~context:doc)
  in
  check cs "compact ≡ builtin rules" vm_out q_out

let test_recursive_schema_forces_functions () =
  let tree_schema =
    S.make ~root:"tree"
      [
        S.node "tree" [ S.particle "node" ];
        S.node "node" [ S.particle "label"; S.particle ~occurs:S.many "node" ];
        S.leaf "label";
      ]
  in
  let prog =
    compile_ss
      {|<xsl:template match="node"><n><xsl:apply-templates select="node"/></n></xsl:template>
<xsl:template match="text()"/>|}
  in
  let result = GEN.translate prog ~schema:tree_schema in
  check cb "non-inline for recursive structure" true (result.GEN.mode = GEN.Mode_functions)

let test_dead_template_removal () =
  (* §3.7: ghost templates produce no code in inline mode *)
  let prog =
    compile_ss
      ({|<xsl:template match="ghost"><never/></xsl:template>|} ^ example1_body)
  in
  let result = GEN.translate prog ~schema:dept_schema in
  let printed = Xdb_xquery.Pretty.prog_syntax result.GEN.query in
  check cb "ghost template dropped" false (contains "never" printed)

let test_partial_inline_extension () =
  (* §7.2 extension: recursive stylesheets keep the acyclic part inline *)
  let body =
    {|<xsl:template match="numbers">
<wrap>
<xsl:call-template name="go"><xsl:with-param name="n" select="3"/></xsl:call-template>
</wrap>
</xsl:template>
<xsl:template name="go">
<xsl:param name="n" select="0"/>
<xsl:if test="$n &gt; 0">
<v><xsl:value-of select="$n"/></v>
<xsl:call-template name="go"><xsl:with-param name="n" select="$n - 1"/></xsl:call-template>
</xsl:if>
</xsl:template>
<xsl:template match="text()"/>|}
  in
  let schema =
    S.make ~root:"numbers" [ S.node "numbers" [ S.particle ~occurs:S.many "num" ]; S.leaf "num" ]
  in
  let prog = compile_ss body in
  (* paper configuration: recursion → full functions mode *)
  let default = GEN.translate prog ~schema in
  check cb "paper config: non-inline" true (default.GEN.mode = GEN.Mode_functions);
  (* extension: only the recursive template becomes a function *)
  let partial = GEN.translate ~options:O.with_partial_inline prog ~schema in
  check cb "partial-inline mode" true (partial.GEN.mode = GEN.Mode_partial_inline);
  check ci "only the cycle template is a function" 1
    (List.length partial.GEN.query.Q.funs);
  let printed = Xdb_xquery.Pretty.prog_syntax partial.GEN.query in
  check cb "wrap element inlined" true (contains "<wrap>" printed);
  (* both agree with the VM *)
  let doc = Xdb_xml.Parser.parse "<numbers><num>1</num><num>2</num></numbers>" in
  let vm = Xdb_xml.Serializer.node_list_to_string (Xdb_xslt.Vm.transform prog doc).X.children in
  let run q = Xdb_xml.Serializer.node_list_to_string (Xdb_xquery.Eval.run_to_nodes q ~context:doc) in
  check cs "functions ≡ VM" vm (run default.GEN.query);
  check cs "partial ≡ VM" vm (run partial.GEN.query)

let test_strip_space_pipeline () =
  (* both evaluation strategies consume the same stripped tree *)
  let ss =
    Printf.sprintf
      {|<?xml version="1.0"?><xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:strip-space elements="*"/>
<xsl:template match="doc"><out><xsl:apply-templates/></out></xsl:template>
<xsl:template match="a"><v><xsl:value-of select="."/></v></xsl:template>
</xsl:stylesheet>|}
  in
  let doc = Xdb_xml.Parser.parse "<doc>\n  <a>x</a>\n  <a>y</a>\n</doc>" in
  let dc = PL.compile_for_document ss ~example_doc:doc in
  let f = PL.transform_functional dc doc in
  let x = PL.transform_via_xquery dc doc in
  check cs "stripped equivalence" f x;
  check cs "whitespace gone" "<out><v>x</v><v>y</v></out>" f

(* an xsl:sort key orders by its type on both sides: a text key as
   strings, even when every key parses as a number, and a
   data-type="number" key numerically with NaN first *)
let test_sort_key_types () =
  let doc = Xdb_xml.Parser.parse "<r><v>10</v><v>9</v><v>1e1</v><v>b</v><v>09</v></r>" in
  List.iter
    (fun (sort, expected) ->
      let ss =
        Printf.sprintf
          {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><o><xsl:for-each select="r/v">%s<xsl:value-of select="."/>,</xsl:for-each>|<xsl:apply-templates select="r/v">%s</xsl:apply-templates></o></xsl:template>
<xsl:template match="v"><xsl:value-of select="."/>,</xsl:template>
</xsl:stylesheet>|}
          sort sort
      in
      let dc = PL.compile_for_document ss ~example_doc:doc in
      let f = PL.transform_functional dc doc in
      check cs (sort ^ ": VM") expected f;
      check cs (sort ^ ": rewrite = VM") f (PL.transform_via_xquery dc doc))
    [
      ({|<xsl:sort select="."/>|}, "<o>09,10,1e1,9,b,|09,10,1e1,9,b,</o>");
      ({|<xsl:sort select="." order="descending"/>|}, "<o>b,9,1e1,10,09,|b,9,1e1,10,09,</o>");
      ({|<xsl:sort select="." data-type="number"/>|}, "<o>1e1,b,9,09,10,|1e1,b,9,09,10,</o>");
    ]

let test_position_last_translation () =
  (* position() and last() inside an applied template translate via a
     positional FLWOR variable and a pre-bound count *)
  let body =
    {|<xsl:template match="employees"><xsl:apply-templates select="emp"/></xsl:template>
<xsl:template match="emp">
<e p="{position()}" n="{last()}"><xsl:value-of select="ename"/></e>
</xsl:template>
<xsl:template match="text()"/>|}
  in
  let prog = compile_ss body in
  let result = GEN.translate prog ~schema:dept_schema in
  check cb "still inline" true (result.GEN.mode = GEN.Mode_inline);
  let doc =
    Xdb_xml.Parser.parse
      "<dept><dname>D</dname><loc>L</loc><employees><emp><empno>1</empno><ename>A</ename><sal>1</sal></emp><emp><empno>2</empno><ename>B</ename><sal>2</sal></emp><emp><empno>3</empno><ename>C</ename><sal>3</sal></emp></employees></dept>"
  in
  let vm = Xdb_xml.Serializer.node_list_to_string (Xdb_xslt.Vm.transform prog doc).X.children in
  let q =
    Xdb_xml.Serializer.node_list_to_string
      (Xdb_xquery.Eval.run_to_nodes result.GEN.query ~context:doc)
  in
  check cs "position/last ≡ VM" vm q;
  check cs "expected shape"
    "<e p=\"1\" n=\"3\">A</e><e p=\"2\" n=\"3\">B</e><e p=\"3\" n=\"3\">C</e>" q

let test_key_translation () =
  (* key(name, v) expands to a document search with the use-predicate *)
  let body =
    {|<xsl:key name="byno" match="emp" use="empno"/>
<xsl:template match="dept">
<found><xsl:value-of select="count(key('byno', 7782))"/></found>
</xsl:template>
<xsl:template match="text()"/>|}
  in
  let prog = compile_ss body in
  let result = GEN.translate prog ~schema:dept_schema in
  let doc =
    Xdb_xml.Parser.parse
      "<dept><dname>D</dname><loc>L</loc><employees><emp><empno>7782</empno><ename>A</ename><sal>1</sal></emp><emp><empno>9</empno><ename>B</ename><sal>2</sal></emp></employees></dept>"
  in
  let vm = Xdb_xml.Serializer.node_list_to_string (Xdb_xslt.Vm.transform prog doc).X.children in
  let q =
    Xdb_xml.Serializer.node_list_to_string
      (Xdb_xquery.Eval.run_to_nodes result.GEN.query ~context:doc)
  in
  check cs "key expansion ≡ VM" vm q;
  check cs "one emp found" "<found>1</found>" q

let test_straightforward_translation () =
  (* [9]-style: functions + dispatch conditionals, no structural info *)
  let prog = compile_ss example1_body in
  let result = GEN.translate_straightforward prog ~schema:dept_schema in
  check cb "functions mode" true (result.GEN.mode = GEN.Mode_functions);
  check cb "has functions" true (List.length result.GEN.query.Q.funs > 0);
  let printed = Xdb_xquery.Pretty.prog_syntax result.GEN.query in
  check cb "instance-of dispatch" true (contains "instance of" printed);
  check cb "builtin function" true (contains "local:builtin" printed)

let test_backward_axis_removal () =
  (* §3.5, Tables 16–19: match="emp/empno" parent test removable because the
     schema proves empno only occurs under emp *)
  let body =
    {|<xsl:template match="dept"><xsl:apply-templates select="employees/emp/empno"/></xsl:template>
<xsl:template match="emp/empno"><e><xsl:value-of select="."/></e></xsl:template>
<xsl:template match="text()"/>|}
  in
  let prog = compile_ss body in
  let with_removal =
    GEN.translate ~options:{ O.straightforward with O.remove_backward_tests = true } prog
      ~schema:dept_schema
  in
  let without_removal =
    GEN.translate ~options:O.straightforward prog ~schema:dept_schema
  in
  let p_with = Xdb_xquery.Pretty.prog_syntax with_removal.GEN.query in
  let p_without = Xdb_xquery.Pretty.prog_syntax without_removal.GEN.query in
  check cb "parent test present without removal" true (contains "parent::emp" p_without);
  check cb "parent test removed" false (contains "parent::emp" p_with);
  (* both still compute the same result *)
  let doc =
    Xdb_xml.Parser.parse
      "<dept><dname>D</dname><loc>L</loc><employees><emp><empno>7</empno><ename>N</ename><sal>1</sal></emp></employees></dept>"
  in
  let run q = Xdb_xml.Serializer.node_list_to_string (Xdb_xquery.Eval.run_to_nodes q ~context:doc) in
  check cs "equivalent" (run without_removal.GEN.query) (run with_removal.GEN.query)

let test_model_group_variants () =
  (* §3.4, Tables 12–14: choice vs sequence generation *)
  let body =
    {|<xsl:template match="pick"><xsl:apply-templates/></xsl:template>
<xsl:template match="a"><A/></xsl:template>
<xsl:template match="b"><B/></xsl:template>
<xsl:template match="text()"/>|}
  in
  let prog = compile_ss body in
  let choice_schema =
    S.make ~root:"pick"
      [ S.node ~group:S.Choice "pick" [ S.particle ~occurs:S.optional "a"; S.particle ~occurs:S.optional "b" ];
        S.leaf "a"; S.leaf "b" ]
  in
  let seq_schema =
    S.make ~root:"pick"
      [ S.node "pick" [ S.particle "a"; S.particle "b" ]; S.leaf "a"; S.leaf "b" ]
  in
  let p_choice =
    Xdb_xquery.Pretty.prog_syntax (GEN.translate prog ~schema:choice_schema).GEN.query
  in
  let p_seq = Xdb_xquery.Pretty.prog_syntax (GEN.translate prog ~schema:seq_schema).GEN.query in
  (* choice: existence conditionals (Table 13); sequence: none (Table 14) *)
  check cb "choice uses exists" true (contains "exists" p_choice);
  check cb "sequence has no conditional" false (contains "if (" p_seq);
  (* all-group: instance-of tests over node() (Table 12) *)
  let all_schema =
    S.make ~root:"pick"
      [ S.node ~group:S.All "pick" [ S.particle "a"; S.particle "b" ]; S.leaf "a"; S.leaf "b" ]
  in
  let p_all = Xdb_xquery.Pretty.prog_syntax (GEN.translate prog ~schema:all_schema).GEN.query in
  check cb "all uses instance-of" true (contains "instance of" p_all)

let test_cardinality_let_vs_for () =
  let body =
    {|<xsl:template match="dept"><xsl:apply-templates select="dname"/></xsl:template>
<xsl:template match="dname"><d><xsl:value-of select="."/></d></xsl:template>
<xsl:template match="text()"/>|}
  in
  let prog = compile_ss body in
  let with_card = GEN.translate prog ~schema:dept_schema in
  let without_card =
    GEN.translate ~options:{ O.default with O.use_cardinality = false } prog ~schema:dept_schema
  in
  let p1 = Xdb_xquery.Pretty.prog_syntax with_card.GEN.query in
  let p2 = Xdb_xquery.Pretty.prog_syntax without_card.GEN.query in
  check cb "cardinality one uses let" true (contains "let $var" p1);
  check cb "option off uses for" true (contains "for $var" p2)

(* ------------------------------------------------------------------ *)
(* full pipeline (Example 1 / Example 2)                                *)
(* ------------------------------------------------------------------ *)

let setup_example1 () =
  let db = Xdb_rel.Database.create () in
  let dept =
    Xdb_rel.Database.create_table db "dept"
      [
        { T.col_name = "deptno"; col_type = V.Tint };
        { T.col_name = "dname"; col_type = V.Tstr };
        { T.col_name = "loc"; col_type = V.Tstr };
      ]
  in
  let emp =
    Xdb_rel.Database.create_table db "emp"
      [
        { T.col_name = "empno"; col_type = V.Tint };
        { T.col_name = "ename"; col_type = V.Tstr };
        { T.col_name = "sal"; col_type = V.Tint };
        { T.col_name = "deptno"; col_type = V.Tint };
      ]
  in
  T.insert_values dept [ V.Int 10; V.Str "ACCOUNTING"; V.Str "NEW YORK" ];
  T.insert_values dept [ V.Int 40; V.Str "OPERATIONS"; V.Str "BOSTON" ];
  T.insert_values emp [ V.Int 7782; V.Str "CLARK"; V.Int 2450; V.Int 10 ];
  T.insert_values emp [ V.Int 7934; V.Str "MILLER"; V.Int 1300; V.Int 10 ];
  T.insert_values emp [ V.Int 7954; V.Str "SMITH"; V.Int 4900; V.Int 40 ];
  ignore (T.create_index emp ~name:"emp_sal_idx" ~column:"sal");
  let leaf name col = P.Elem { name; attrs = []; content = [ P.Text_col col ] } in
  let view =
    {
      P.view_name = "dept_emp";
      base_table = "dept";
      base_alias = "dept";
      column = "dept_content";
      spec =
        P.Elem
          {
            name = "dept";
            attrs = [];
            content =
              [
                leaf "dname" "dname";
                leaf "loc" "loc";
                P.Elem
                  {
                    name = "employees";
                    attrs = [];
                    content =
                      [
                        P.Agg
                          {
                            table = "emp";
                            alias = "emp";
                            correlate = [ ("deptno", "deptno") ];
                            where = None;
                            order_by = [ ("empno", A.Asc) ];
                            body =
                              P.Elem
                                {
                                  name = "emp";
                                  attrs = [];
                                  content =
                                    [ leaf "empno" "empno"; leaf "ename" "ename"; leaf "sal" "sal" ];
                                };
                          };
                      ];
                  };
              ];
          };
    }
  in
  (db, view)

let example1_stylesheet =
  Printf.sprintf
    {|<?xml version="1.0"?><xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">%s</xsl:stylesheet>|}
    example1_body

let test_example1_pipeline () =
  let db, view = setup_example1 () in
  let c = PL.compile db view example1_stylesheet in
  check cb "SQL plan produced" true (c.PL.sql_plan <> None);
  let f = PL.run_functional db c in
  let x = PL.run_xquery_stage db c in
  let r = PL.run_rewrite db c in
  check Alcotest.(list string) "functional = xquery stage" f x;
  check Alcotest.(list string) "functional = rewrite" f r;
  (* the first row reproduces paper Table 6 *)
  check cs "paper Table 6"
    "<H1>HIGHLY PAID DEPT EMPLOYEES</H1><H2>Department name: ACCOUNTING</H2><H2>Department location: NEW YORK</H2><H2>Employees Table</H2><table border=\"2\"><td><b>EmpNo</b></td><td><b>Name</b></td><td><b>Weekly Salary</b></td><tr><td>7782</td><td>CLARK</td><td>2450</td></tr></table>"
    (List.hd f);
  (* plan shape of paper Table 7: index scan on sal inside the subquery *)
  let explain = A.explain (Option.get c.PL.sql_plan) in
  check cb "B-tree probe on sal" true (contains "IndexScan emp" explain);
  check cb "residual correlation" true (contains "deptno" explain)

let test_example2_combined () =
  let db, view = setup_example1 () in
  let c = PL.compile db view example1_stylesheet in
  let steps = [ Xdb_xpath.Ast.child_step "table"; Xdb_xpath.Ast.child_step "tr" ] in
  let plan_opt, composed = PL.compose db c steps in
  check cb "combined plan produced" true (plan_opt <> None);
  (* the composed query keeps only the tr-producing FLWOR (paper Table 11) *)
  let printed = Xdb_xquery.Pretty.prog_syntax composed in
  check cb "H1 eliminated" false (contains "H1" printed);
  check cb "emp iteration kept" true (contains "emp[sal > 2000]" printed);
  (* results: one row set per dept *)
  let rows = Xdb_rel.Exec.run db (Option.get plan_opt) in
  let out = List.map (fun r -> V.to_string (List.assoc "result" r)) rows in
  check Alcotest.(list string) "paper Table 11 result"
    [
      "<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>";
      "<tr><td>7954</td><td>SMITH</td><td>4900</td></tr>";
    ]
    out;
  (* dynamic evaluation agrees *)
  let dyn = PL.run_composed_dynamic db c composed in
  check Alcotest.(list string) "composition differential" dyn out

let test_explain_sections () =
  let db, view = setup_example1 () in
  let c = PL.compile db view example1_stylesheet in
  let text = PL.explain c in
  check cb "mode section" true (contains "translation mode: inline" text);
  check cb "graph section" true (contains "template execution graph" text);
  check cb "xquery section" true (contains "declare variable $var000" text);
  check cb "plan section" true (contains "SQL/XML plan" text)

let test_schema_evolution_registry () =
  (* paper §7.3: re-registering an evolved view triggers recompilation *)
  let db, view = setup_example1 () in
  let reg = Xdb_core.Registry.create db in
  Xdb_core.Registry.register_view reg view;
  let out1 =
    Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  check ci "one compilation" 1 (Xdb_core.Registry.recompilations reg);
  (* reuse: same view, same stylesheet → cached *)
  let out1' =
    Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  check ci "cache hit" 1 (Xdb_core.Registry.recompilations reg);
  check Alcotest.(list string) "stable output" out1 out1';
  (* evolve the schema: drop <loc> from the published shape *)
  let evolved =
    match view.P.spec with
    | P.Elem ({ content = dname :: _loc :: rest; _ } as e) ->
        { view with P.spec = P.Elem { e with content = dname :: rest } }
    | _ -> Alcotest.fail "unexpected spec shape"
  in
  Xdb_core.Registry.register_view reg evolved;
  let out2 =
    Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  check ci "recompiled after evolution" 2 (Xdb_core.Registry.recompilations reg);
  check cb "output reflects new schema" true (out1 <> out2);
  check cb "loc gone from output" false (contains "Department location" (List.hd out2));
  (* unknown views are reported *)
  match Xdb_core.Registry.run reg ~view_name:"ghost" ~stylesheet:example1_stylesheet with
  | exception Xdb_core.Registry.Registry_error _ -> ()
  | _ -> Alcotest.fail "unknown view must raise"

let test_evolution_vs_catalog_duplicates () =
  (* schema evolution replaces a view by re-registering it through the
     registry; the publishing catalog itself never silently shadows — a
     second register of the same name raises Publish_error *)
  let db, view = setup_example1 () in
  let cat = P.create_catalog db in
  P.register cat view;
  (match P.register cat view with
  | exception P.Publish_error _ -> ()
  | () -> Alcotest.fail "catalog must reject duplicate view names");
  let reg = Xdb_core.Registry.create db in
  Xdb_core.Registry.register_view reg view;
  let out1 =
    Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  let evolved =
    match view.P.spec with
    | P.Elem ({ content = dname :: _loc :: rest; _ } as e) ->
        { view with P.spec = P.Elem { e with content = dname :: rest } }
    | _ -> Alcotest.fail "unexpected spec shape"
  in
  (* registry re-registration is the evolution path: replaces, no error *)
  Xdb_core.Registry.register_view reg evolved;
  let out2 =
    Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  check ci "recompiled on evolution" 2 (Xdb_core.Registry.recompilations reg);
  check cb "evolved output differs" true (out1 <> out2)

let test_registry_counters () =
  (* one recompilation — and exactly one — after schema evolution, with
     hit/miss/stale accounting to match *)
  let db, view = setup_example1 () in
  let reg = Xdb_core.Registry.create db in
  Xdb_core.Registry.register_view reg view;
  let counter name = List.assoc name (Xdb_core.Registry.counters reg) in
  ignore (Xdb_core.Registry.compile reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  check ci "first use is a miss" 1 (counter "cache_misses");
  check ci "no hits yet" 0 (counter "cache_hits");
  ignore (Xdb_core.Registry.compile reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  ignore (Xdb_core.Registry.compile reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  check ci "reuses hit the cache" 2 (counter "cache_hits");
  check ci "still one miss" 1 (counter "cache_misses");
  check ci "nothing stale yet" 0 (counter "cache_stale");
  (* evolve the schema: drop <loc>; the next compile is stale, not a miss *)
  let evolved =
    match view.P.spec with
    | P.Elem ({ content = dname :: _loc :: rest; _ } as e) ->
        { view with P.spec = P.Elem { e with content = dname :: rest } }
    | _ -> Alcotest.fail "unexpected spec shape"
  in
  Xdb_core.Registry.register_view reg evolved;
  ignore (Xdb_core.Registry.compile reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  check ci "exactly one stale entry" 1 (counter "cache_stale");
  check ci "misses unchanged" 1 (counter "cache_misses");
  check ci "recompilations = misses + stale" 2 (counter "recompilations");
  (* the recompiled entry serves hits again *)
  ignore (Xdb_core.Registry.compile reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  check ci "hit after recompilation" 3 (counter "cache_hits");
  check ci "recompilation count settled" 2 (counter "recompilations")

let test_registry_stats_invalidation () =
  (* re-ANALYZE bumps the catalog's stats version; cached plans were costed
     against the old statistics and must recompile (§7.3 spirit: the
     database tracks the dependency, the registry recompiles) *)
  let db, view = setup_example1 () in
  let reg = Xdb_core.Registry.create db in
  Xdb_core.Registry.register_view reg view;
  let counter name = List.assoc name (Xdb_core.Registry.counters reg) in
  let out1 = Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet in
  ignore (Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  check ci "cached before ANALYZE" 1 (counter "recompilations");
  ignore (Xdb_rel.Analyze.all db);
  let out2 = Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet in
  check ci "entry went stale on re-ANALYZE" 1 (counter "cache_stale");
  check ci "recompiled once" 2 (counter "recompilations");
  check Alcotest.(list string) "re-costed plan, same output" out1 out2;
  (* the fresh entry serves hits until the stats change again *)
  ignore (Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  check ci "steady state" 2 (counter "recompilations");
  ignore (Xdb_rel.Analyze.table db "emp");
  ignore (Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:example1_stylesheet);
  check ci "second ANALYZE invalidates again" 3 (counter "recompilations")

let test_registry_lru_eviction () =
  (* capacity-bounded cache: the least recently used entry is evicted and
     counted; a later use of the victim is a fresh miss *)
  let db, view = setup_example1 () in
  let reg = Xdb_core.Registry.create ~capacity:2 db in
  Xdb_core.Registry.register_view reg view;
  let counter name = List.assoc name (Xdb_core.Registry.counters reg) in
  (* same semantics, distinct cache keys: a tagging comment in the sheet *)
  let variant tag =
    Printf.sprintf
      {|<?xml version="1.0"?><xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">%s<!-- %s --></xsl:stylesheet>|}
      example1_body tag
  in
  let ss_a = variant "a" and ss_b = variant "b" and ss_c = variant "c" in
  let compile ss = ignore (Xdb_core.Registry.compile reg ~view_name:"dept_emp" ~stylesheet:ss) in
  compile ss_a;
  compile ss_b;
  check ci "within capacity: no evictions" 0 (counter "cache_evictions");
  compile ss_a;
  (* touch A so B is the LRU victim *)
  compile ss_c;
  check ci "third entry evicts the LRU one" 1 (counter "cache_evictions");
  compile ss_a;
  check ci "A survived (recently used)" 2 (counter "cache_hits");
  compile ss_b;
  (* B was evicted: compiling it again is a miss, and inserting it pushes
     out the current LRU entry *)
  check ci "evicted entry misses" 4 (counter "cache_misses");
  check ci "reinsert evicts again" 2 (counter "cache_evictions")

(* ---- stylesheet shapes: integer literals as plan parameters ---- *)

let test_shape_cut () =
  let cut text = Option.map (fun (s, v) -> (s, Array.to_list v)) (Xdb_core.Shape.cut text) in
  let some shape values = Some (shape, values) in
  let o = Alcotest.(option (pair string (list int))) in
  check o "comparison operand" (some {|<a select="row[id = $xdb-p0]"/>|} [ 42 ])
    (cut {|<a select="row[id = 42]"/>|});
  check o "test value, both slots in order"
    (some {|<a test="x &lt; 1"/><b test="v=$xdb-p0 or w>$xdb-p1"/>|} [ 7; 7 ])
    (cut {|<a test="x &lt; 1"/><b test="v=7 or w>007"/>|});
  check o "single-quoted value, double-quoted literal kept"
    (some {|<a select='row[name = "7"][id=$xdb-p0]'/>|} [ 8 ])
    (cut {|<a select='row[name = "7"][id=8]'/>|});
  List.iter
    (fun text -> check o text None (cut text))
    [
      {|<a select="row[id = '42']"/>|};
      {|<a select="h1 | x2"/>|};
      {|<a select="1.5"/>|};
      {|<a select="-3"/>|};
      {|<a select="5-3"/>|};
      {|<a test="value &gt; 5"/>|};
      {|<a select="1234567890123456"/>|};
      {|<a match="row[id = 4]" xselect="5" mode="m2"/>|};
      {|<a select="$xdb-p0 = 1"/>|};
      {|<a b="{$xdb-p0}" select="row[id = 5]"/>|};
      {|<a test="$xdb-p1 &gt; 2" select="row[id = 5]"/>|};
    ]

let test_shape_sharing_counters () =
  (* 1,000 dbonerow texts with distinct keys share one compile *)
  let dv = Xdb_xsltmark.Data.records_db 50 in
  let reg = Xdb_core.Registry.create dv.Xdb_xsltmark.Data.db in
  Xdb_core.Registry.register_view reg dv.Xdb_xsltmark.Data.view;
  let counter name = List.assoc name (Xdb_core.Registry.counters reg) in
  for k = 1 to 1000 do
    ignore
      (Xdb_core.Registry.compile reg ~view_name:"records_vu"
         ~stylesheet:(Xdb_xsltmark.Cases.dbonerow_stylesheet k))
  done;
  check ci "one miss" 1 (counter "cache_misses");
  check ci "every other text a hit" 999 (counter "cache_hits");
  check ci "one compile" 1 (counter "recompilations");
  check ci "shareable" 0 (counter "cache_unshareable");
  (* a re-ANALYZE re-costs each binding but leaves the template fresh *)
  ignore (Xdb_rel.Analyze.all dv.Xdb_xsltmark.Data.db);
  ignore
    (Xdb_core.Registry.compile reg ~view_name:"records_vu"
       ~stylesheet:(Xdb_xsltmark.Cases.dbonerow_stylesheet 7));
  check ci "template survives ANALYZE" 1000 (counter "cache_hits");
  check ci "nothing stale" 0 (counter "cache_stale")

(* a binding whose literal reads replay equal reuses the optimised
   template: on an ANALYZEd table, in-range keys all get one plan;
   out-of-range keys read a different estimate and re-optimise; an
   ANALYZE costs one more optimiser run *)
let test_template_replay () =
  let module D = Xdb_xsltmark.Data in
  let module EN = Xdb_core.Engine in
  let dv = D.records_db 2000 in
  let db = dv.D.db and view_name = "records_vu" in
  let e = EN.create db in
  EN.register_view e dv.D.view;
  ignore (EN.execute e "ANALYZE");
  let nc = { EN.default_run_options with EN.result_cache = false } in
  let optimizations () = List.assoc "template_optimizations" (EN.registry_counters e) in
  let read k =
    (EN.transform ~options:nc e ~view_name ~stylesheet:(Xdb_xsltmark.Cases.dbonerow_stylesheet k))
      .EN.output
  in
  let functional k =
    PL.run_functional db (PL.compile db dv.D.view (Xdb_xsltmark.Cases.dbonerow_stylesheet k))
  in
  for i = 0 to 999 do
    ignore (read (1 + (i * 7 mod 2000)))
  done;
  check ci "1,000 in-range reads: one optimiser run" 1 (optimizations ());
  let expect_run name k runs =
    check Alcotest.(list string) (name ^ ": functional VM's bytes") (functional k) (read k);
    check ci (name ^ ": optimiser runs") runs (optimizations ())
  in
  expect_run "key 0" 0 2;
  expect_run "in range again" 1500 3;
  expect_run "key 123456789" 123_456_789 4;
  expect_run "in range" 17 5;
  ignore (EN.execute e "ANALYZE");
  for k = 1 to 100 do
    ignore (read k)
  done;
  check ci "an ANALYZE: one more optimiser run" 6 (optimizations ());
  EN.shutdown e

let test_unshareable_shapes () =
  (* shapes whose slot is not a comparison parameter: each text compiles
     by exact text (one miss per distinct text), the shape is tried once,
     and the output is the functional VM's *)
  let dv = Xdb_xsltmark.Data.records_db 20 in
  let db = dv.Xdb_xsltmark.Data.db and view = dv.Xdb_xsltmark.Data.view in
  let ss body =
    Printf.sprintf
      {|<?xml version="1.0"?><xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">%s
<xsl:template match="row"><hit><xsl:value-of select="name"/></hit></xsl:template>
<xsl:template match="text()"/></xsl:stylesheet>|}
      body
  in
  let families =
    [
      ( "digit in a comment",
        {|<xsl:template match="table"><!-- select="%d" --><out><xsl:apply-templates select="row[id = 3]"/></out></xsl:template>|}
      );
      ( "literal result element's attribute",
        {|<xsl:template match="table"><out select="%d"><xsl:apply-templates select="row[id = 3]"/></out></xsl:template>|}
      );
      ("row[k]", {|<xsl:template match="table"><out><xsl:apply-templates select="row[%d]"/></out></xsl:template>|});
      ("k + 2", {|<xsl:template match="table"><out><xsl:value-of select="%d + 2"/></out></xsl:template>|});
    ]
  in
  List.iter
    (fun (name, body) ->
      let reg = Xdb_core.Registry.create db in
      Xdb_core.Registry.register_view reg view;
      let counter c = List.assoc c (Xdb_core.Registry.counters reg) in
      List.iter
        (fun k ->
          let text = ss (Printf.sprintf (Scanf.format_from_string body "%d") k) in
          let c = Xdb_core.Registry.compile reg ~view_name:"records_vu" ~stylesheet:text in
          check (Alcotest.list cs) (name ^ ": output = functional VM")
            (PL.run_functional db (PL.compile db view text))
            (PL.run_rewrite db c))
        [ 3; 4; 5; 3 ];
      check ci (name ^ ": one miss per distinct text") 3 (counter "cache_misses");
      check ci (name ^ ": the repeat hits") 1 (counter "cache_hits");
      check ci (name ^ ": shape tried once") 1 (counter "cache_unshareable"))
    families

let test_dbonerow_explain_analyze () =
  (* acceptance: the dbonerow plan shows a B-tree index probe with actual
     row count 1; dropping the index flips it to a full scan *)
  let n = 500 in
  let case = Xdb_xsltmark.Cases.dbonerow_for n in
  let dv = Xdb_xsltmark.Cases.dbview_for case n in
  let db = dv.Xdb_xsltmark.Data.db in
  let c = PL.compile db dv.Xdb_xsltmark.Data.view case.Xdb_xsltmark.Cases.stylesheet in
  check cb "SQL plan produced" true (c.PL.sql_plan <> None);
  let text = PL.explain_analyze db c in
  check cb "index scan in plan" true (contains "IndexScan rows" text);
  check cb "probe with one actual row" true (contains "actual=1" text);
  check cb "one btree probe" true (contains "probes=1" text);
  let f = PL.run_functional db c in
  check Alcotest.(list string) "indexed rewrite correct" f (PL.run_rewrite db c);
  (* drop the id index and recompile: full scan, no probes *)
  T.drop_index (Xdb_rel.Database.table db "rows") ~name:"rows_id_idx";
  let c2 = PL.compile db dv.Xdb_xsltmark.Data.view case.Xdb_xsltmark.Cases.stylesheet in
  check cb "still SQL-rewritable" true (c2.PL.sql_plan <> None);
  let text2 = PL.explain_analyze db c2 in
  check cb "no index scan after drop" false (contains "IndexScan rows" text2);
  check cb "full scan after drop" true (contains "SeqScan rows" text2);
  check cb "no probes after drop" false (contains "probes=" text2);
  (* the full-scan plan still matches the functional baseline *)
  check Alcotest.(list string) "full-scan rewrite correct" f (PL.run_rewrite db c2)

let test_ordering_strategy_explain () =
  (* the records view publishes rows ORDER BY id, the key the heap is
     loaded in: avts's XMLAgg skips its sort, and the reference executor
     counts its input as presorted too; a row
     inserted with the smallest id lands at the heap's end, and the same
     plan then sorts *)
  let dv = Xdb_xsltmark.Data.records_db 200 in
  let db = dv.Xdb_xsltmark.Data.db in
  let ss = (Option.get (Xdb_xsltmark.Cases.find "avts")).Xdb_xsltmark.Cases.stylesheet in
  let c = PL.compile db dv.Xdb_xsltmark.Data.view ss in
  let plan = Option.get c.PL.sql_plan in
  let strategy expected =
    List.iter
      (fun (executor, text) ->
        if not (contains expected text) then
          Alcotest.failf "expected %s (%s executor) in:\n%s" expected executor text)
      [
        ("compiled", PL.explain_analyze db c);
        ( "reference",
          Xdb_rel.Optimizer.explain_analyze db plan (snd (Ref_exec.run_analyzed db plan)) );
      ]
  in
  strategy "presorted=1 sorted=0";
  T.insert_values (Xdb_rel.Database.table db "rows")
    [ Xdb_rel.Value.Int 1; Xdb_rel.Value.Int 0; Xdb_rel.Value.Str "late";
      Xdb_rel.Value.Int 5; Xdb_rel.Value.Str "c" ];
  strategy "presorted=0 sorted=1";
  check Alcotest.(list string) "sorted rewrite = functional" (PL.run_functional db c)
    (PL.run_rewrite db c)

let test_nan_condition_differential () =
  (* regression: 0/0 = NaN reaching a CASE condition in the SQL path; the
     executor treated NaN as true while the functional baseline (XPath
     boolean semantics) treats it as false *)
  let nan_stylesheet =
    {|<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table">
<out><xsl:apply-templates select="row"/></out>
</xsl:template>
<xsl:template match="row">
<xsl:if test="(value - value) div (value - value)"><hit><xsl:value-of select="name"/></hit></xsl:if>
</xsl:template>
<xsl:template match="text()"/>
</xsl:stylesheet>|}
  in
  let dv = Xdb_xsltmark.Data.records_db 20 in
  let db = dv.Xdb_xsltmark.Data.db in
  let c = PL.compile db dv.Xdb_xsltmark.Data.view nan_stylesheet in
  check cb "SQL plan produced" true (c.PL.sql_plan <> None);
  let f = PL.run_functional db c in
  let r = PL.run_rewrite db c in
  check Alcotest.(list string) "functional = rewrite under NaN condition" f r;
  (* NaN is false: no <hit> elements anywhere *)
  check cb "no hits emitted" false (contains "<hit>" (String.concat "" f))

(* XPath 1.0 §3.4 comparisons between a string or int column and a
   string or number literal, in a path predicate and in xsl:if: a
   string that is not a number compares as NaN (false, but true for
   [!=]) instead of failing the plan's cast, and [<]/[>] compare
   numbers even when both sides are strings *)
let test_mixed_comparison_differential () =
  let dv = Xdb_xsltmark.Data.records_db 5 in
  let db = dv.Xdb_xsltmark.Data.db in
  List.iter
    (fun col ->
      List.iter
        (fun op ->
          List.iter
            (fun lit ->
              let cond = Printf.sprintf "%s %s %s" col op lit in
              let stylesheet =
                Printf.sprintf
                  {|<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table"><o><xsl:apply-templates select="row[%s]"/>|<xsl:for-each select="row"><xsl:if test="%s"><xsl:value-of select="id"/></xsl:if></xsl:for-each></o></xsl:template>
<xsl:template match="row"><r><xsl:value-of select="id"/></r></xsl:template>
<xsl:template match="text()"/>
</xsl:stylesheet>|}
                  cond cond
              in
              let c = PL.compile db dv.Xdb_xsltmark.Data.view stylesheet in
              check Alcotest.(list string) cond (PL.run_functional db c) (PL.run_rewrite db c))
            [ "5"; "2.5"; "'3'"; "'name000002'"; "'x'" ])
        [ "="; "!="; "&lt;"; "&gt;" ])
    [ "id"; "name"; "category" ]

let test_negative_zero_differential () =
  (* XPath 1.0 §4.2: both zeros convert to the string "0".  round() of a
     value in [-0.5, 0) and 0 * (0 - 1) are negative zero; the
     functional VM and the SQL rewrite share the number formatter and
     must both print 0, in attribute values and in text (the SQL
     rewrite has no unary minus, hence the subtractions) *)
  let stylesheet =
    {|<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table">
<out><xsl:apply-templates select="row"/></out>
</xsl:template>
<xsl:template match="row">
<r a="{round(id - id - 0.2)}" b="{(id - id) * (0 - 1)}"><xsl:value-of select="round(0 - 0.2)"/>|<xsl:value-of
 select="0 * (0 - 1)"/>|<xsl:value-of select="round(id div (0 - 1000000))"/></r>
</xsl:template>
<xsl:template match="text()"/>
</xsl:stylesheet>|}
  in
  let dv = Xdb_xsltmark.Data.records_db 5 in
  let db = dv.Xdb_xsltmark.Data.db in
  let c = PL.compile db dv.Xdb_xsltmark.Data.view stylesheet in
  check cb "SQL plan produced" true (c.PL.sql_plan <> None);
  let f = PL.run_functional db c in
  let r = PL.run_rewrite db c in
  check Alcotest.(list string) "functional = rewrite" f r;
  let out = String.concat "" r in
  check cb "zeros print 0" true (contains {|<r a="0" b="0">0|0|0</r>|} out);
  check cb "no -0 anywhere" false (contains "-0" out)

(* ------------------------------------------------------------------ *)
(* Domain-parallel execution (PR 5)                                    *)
(* ------------------------------------------------------------------ *)

module PAR = Xdb_core.Parallel
module EN = Xdb_core.Engine
module XE = Xdb_core.Xdb_error

(* CI sets XDB_TEST_JOBS to exercise the locked registry under more
   domains than the default *)
let test_jobs =
  match Option.bind (Sys.getenv_opt "XDB_TEST_JOBS") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 4

let test_chunk_ranges () =
  check (Alcotest.list (Alcotest.pair ci ci)) "empty when total 0" []
    (PAR.chunk_ranges ~total:0 ~chunks:4);
  check (Alcotest.list (Alcotest.pair ci ci)) "fewer chunks than total" [ (0, 1); (1, 2) ]
    (PAR.chunk_ranges ~total:2 ~chunks:5);
  List.iter
    (fun (total, chunks) ->
      let ranges = PAR.chunk_ranges ~total ~chunks in
      (* contiguous cover of [0, total) in order *)
      let expected_next = ref 0 in
      List.iter
        (fun (lo, hi) ->
          check ci "contiguous" !expected_next lo;
          check cb "non-empty range" true (hi > lo);
          expected_next := hi)
        ranges;
      check ci "covers total" total !expected_next;
      check cb "at most requested chunks" true (List.length ranges <= chunks);
      (* balanced to within one element *)
      let sizes = List.map (fun (lo, hi) -> hi - lo) ranges in
      let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
      check cb "balanced" true (mx - mn <= 1))
    [ (1, 1); (7, 3); (100, 4); (3, 8); (1024, 7) ]

let test_pool_run () =
  PAR.with_pool ~jobs:test_jobs (fun pool ->
      check ci "pool size" test_jobs (PAR.jobs pool);
      (* deterministic index order regardless of executing domain *)
      let r = PAR.run pool (fun i -> i * i) 100 in
      Array.iteri (fun i v -> check ci "ordered result" (i * i) v) r;
      check cb "empty run" true (PAR.run pool (fun i -> i) 0 = [||]);
      (* the pool is reusable across runs *)
      check ci "second run" 10 (Array.length (PAR.run pool (fun i -> i) 10)));
  (* jobs = 1: no domains, still correct *)
  PAR.with_pool ~jobs:1 (fun pool ->
      check ci "degenerate pool" 1 (PAR.jobs pool);
      check cb "sequential run" true (PAR.run pool (fun i -> i + 1) 5 = [| 1; 2; 3; 4; 5 |]))

let test_pool_exception () =
  PAR.with_pool ~jobs:3 (fun pool ->
      (match PAR.run pool (fun i -> if i = 7 then failwith "boom" else i) 16 with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure m -> check cs "task exception propagates" "boom" m);
      (* the pool survives a failed batch *)
      check ci "usable after failure" 4 (Array.length (PAR.run pool (fun i -> i) 4)));
  let pool = PAR.create ~jobs:2 in
  PAR.shutdown pool;
  PAR.shutdown pool (* idempotent *);
  match PAR.run pool (fun i -> i) 3 with
  | _ -> Alcotest.fail "run on a shut-down pool must raise"
  | exception Invalid_argument _ -> ()

let db_case_names = [ "dbonerow"; "avts"; "chart"; "metric"; "total" ]

let case_env ?(docs = 1) name size =
  let case =
    match Xdb_xsltmark.Cases.find name with
    | Some c -> c
    | None -> Alcotest.fail ("unknown case " ^ name)
  in
  let case =
    if case.Xdb_xsltmark.Cases.name = "dbonerow" then Xdb_xsltmark.Cases.dbonerow_for size
    else case
  in
  let dv = Xdb_xsltmark.Cases.dbview_for ~docs case size in
  (dv.Xdb_xsltmark.Data.db, dv.Xdb_xsltmark.Data.view, case.Xdb_xsltmark.Cases.stylesheet)

(* qcheck differential: the runs split over a pool must be byte-identical
   to the sequential ones over every db-capable case — sharded into
   several documents so the documents really split — jobs 2 and 4, with
   and without ANALYZE statistics *)
let prop_parallel_equiv_sequential =
  QCheck.Test.make ~name:"parallel(jobs=2,4) = sequential over db cases" ~count:25
    QCheck.(
      quad (oneofl db_case_names) (oneofl [ 2; 4 ])
        (pair (int_range 3 40) (int_range 1 7))
        bool)
    (fun (name, jobs, (size, docs), analyze) ->
      let db, view, ss = case_env ~docs name size in
      if analyze then ignore (Xdb_rel.Analyze.all db);
      let c = PL.compile db view ss in
      let seq_r = PL.run_rewrite db c in
      PAR.with_pool ~jobs (fun pool -> PL.run_rewrite ~pool db c = seq_r))

(* a run splits by output document whatever the plan's shape: a Sort on
   top, or the base table scanned twice (a correlated subquery over it
   under every document) *)
let test_split_parity pick () =
  let db, view, ss = case_env ~docs:40 "avts" 400 in
  let c = PL.compile db view ss in
  let doc kids = A.Xml_element ("doc", [ ("tid", A.qcol "t" "tid") ], kids) in
  let subquery aggs input = A.Scalar_subquery (A.Aggregate { group_by = []; aggs; input }) in
  (* the document's records, through a compiled [concat] each *)
  let names =
    subquery
      [
        ( A.String_agg
            (A.Fn ("concat", [ A.qcol "r" "name"; A.const_str "/"; A.qcol "r" "category" ]), ","),
          "s" );
      ]
      (A.Filter
         ( A.Binop (A.Eq, A.qcol "r" "tid", A.qcol "t" "tid"),
           A.Seq_scan { table = "rows"; alias = "r" } ))
  in
  let earlier =
    subquery
      [ (A.Count_star, "n") ]
      (A.Filter
         ( A.Binop (A.Leq, A.qcol "t2" "tid", A.qcol "t" "tid"),
           A.Seq_scan { table = "tables"; alias = "t2" } ))
  in
  let base = A.Seq_scan { table = "tables"; alias = "t" } in
  let sorted =
    A.Sort
      ( [ (A.Col (None, "k"), A.Desc) ],
        A.Project ([ (doc [ A.Xml_text names ], "result"); (A.qcol "t" "tid", "k") ], base) )
  in
  let twice = A.Project ([ (doc [ A.Xml_text earlier ], "result") ], base) in
  let c = { c with PL.sql_plan = Some (pick (sorted, twice)) } in
  let seq = PL.run_rewrite db c in
  check ci "a document per base row" 40 (List.length seq);
  PAR.with_pool ~jobs:3 (fun pool ->
      check (Alcotest.list cs) "jobs=3 = sequential" seq (PL.run_rewrite ~pool db c))

(* the documents of one compiled plan drain on several domains at once:
   avts's tag="r{id}-{category}" is a compiled [concat], which must not
   share its scratch buffer between domains *)
let test_split_concat_race () =
  let db, view, ss = case_env ~docs:40 "avts" 2000 in
  let c = PL.compile db view ss in
  let seq = PL.run_rewrite db c in
  PAR.with_pool ~jobs:4 (fun pool ->
      for i = 1 to 5 do
        check (Alcotest.list cs) (Printf.sprintf "split run %d = sequential" i) seq
          (PL.run_rewrite ~pool db c)
      done)

let test_registry_concurrent () =
  (* [test_jobs] domains hammer one capacity-bounded registry; afterwards
     the counters must be torn-state-free: every compile call is either a
     hit or a recompilation, and recompilations = misses + stale *)
  let db, view = setup_example1 () in
  let reg = Xdb_core.Registry.create ~capacity:3 db in
  Xdb_core.Registry.register_view reg view;
  let variant tag =
    Printf.sprintf
      {|<?xml version="1.0"?><xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">%s<!-- v%d --></xsl:stylesheet>|}
      example1_body tag
  in
  let variants = Array.init 6 variant in
  let per_domain = 40 in
  let outputs =
    PAR.with_pool ~jobs:test_jobs (fun pool ->
        PAR.run pool
          (fun d ->
            List.init per_domain (fun i ->
                let ss = variants.((d + (3 * i)) mod Array.length variants) in
                Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:ss))
          test_jobs)
  in
  (* all variants differ only in a comment: identical output everywhere *)
  let reference = List.hd outputs.(0) in
  Array.iter
    (List.iter (fun out -> check cb "consistent output under contention" true (out = reference)))
    outputs;
  let counter name = List.assoc name (Xdb_core.Registry.counters reg) in
  let calls = test_jobs * per_domain in
  check ci "every call was a hit or a recompilation" calls
    (counter "cache_hits" + counter "recompilations");
  check ci "recompilations = misses + stale" (counter "recompilations")
    (counter "cache_misses" + counter "cache_stale");
  check cb "bounded cache kept evicting" true (counter "cache_evictions" > 0);
  (* the cache still works sequentially afterwards (no torn LRU state) *)
  let after = Xdb_core.Registry.run reg ~view_name:"dept_emp" ~stylesheet:variants.(0) in
  check cb "usable after the hammering" true (after = reference)

let test_engine_facade () =
  let db, view = setup_example1 () in
  let engine = EN.create db in
  EN.register_view engine view;
  let t ?(options = EN.default_run_options) () =
    EN.transform ~options engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  let base = (t ()).EN.output in
  check cb "engine produces documents" true (base <> []);
  check cb "no metrics unless asked" true ((t ()).EN.metrics = None);
  check (Alcotest.list cs) "engine = functional VM"
    (PL.run_functional db (PL.compile db view example1_stylesheet))
    base;
  (* every run_options combination agrees byte-for-byte — with the result
     cache bypassed, so each run genuinely recomputes *)
  let nc = { EN.default_run_options with EN.result_cache = false } in
  List.iter
    (fun options ->
      let r = t ~options () in
      check (Alcotest.list cs) "options-invariant output" base r.EN.output;
      check cb "metrics iff collect_metrics" (options.EN.collect_metrics)
        (r.EN.metrics <> None))
    [
      nc;
      { nc with EN.jobs = 3 };
      { nc with EN.collect_metrics = true };
      { EN.jobs = 2; collect_metrics = true; result_cache = false; indent = false };
    ];
  (* publish through the facade: streamed and parallel agree with the
     documents built as trees and then serialized *)
  let pub ?(options = EN.default_run_options) () =
    (EN.publish ~options engine ~view_name:"dept_emp").EN.output
  in
  let dom =
    List.map
      (fun d -> Xdb_xml.Serializer.node_list_to_string d.Xdb_xml.Types.children)
      (Xdb_rel.Publish.materialize db view)
  in
  check cb "published documents" true (dom <> []);
  check (Alcotest.list cs) "streamed publish identical" dom (pub ~options:nc ());
  check (Alcotest.list cs) "parallel publish identical" dom (pub ~options:{ nc with EN.jobs = 4 } ());
  (* explain / explain_analyze work and agree on actual row counts *)
  check cb "explain has a plan section" true
    (contains "SQL/XML plan" (EN.explain engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet));
  let analyzed =
    EN.explain_analyze engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  check cb "explain_analyze reports actuals" true (contains "actual=" analyzed);
  check ci "cache served repeated prepares"
    (List.assoc "cache_misses" (EN.registry_counters engine))
    1;
  EN.shutdown engine;
  EN.shutdown engine (* idempotent *);
  (* the engine stays usable after shutdown (fresh pool on demand) *)
  check (Alcotest.list cs) "usable after shutdown" base
    (t ~options:{ EN.default_run_options with EN.jobs = 2 } ()).EN.output

(* ------------------------------------------------------------------ *)
(* Result cache (PR 10)                                                *)
(* ------------------------------------------------------------------ *)

module RC = Xdb_core.Result_cache

let test_result_cache_unit () =
  let db = Xdb_rel.Database.create () in
  ignore (Xdb_rel.Database.create_table db "t" [ { Xdb_rel.Table.col_name = "a"; col_type = Xdb_rel.Value.Tint } ]);
  let rc = RC.create ~capacity:2 db in
  check cb "miss on empty" true (RC.find rc ~key:"k1" () = RC.Miss);
  RC.store rc ~view:"v" ~key:"k1" ~deps:[ "t" ] [ "out1" ];
  check cb "hit while fresh" true (RC.find rc ~key:"k1" () = RC.Hit [ "out1" ]);
  (* a write to the dependency table invalidates on the next lookup *)
  Xdb_rel.Database.bump_data_version db "t";
  check cb "stale after version bump" true (RC.find rc ~key:"k1" () = RC.Dropped);
  check ci "entry dropped" 0 (RC.size rc);
  (* re-stored entries snapshot the new version *)
  RC.store rc ~view:"v" ~key:"k1" ~deps:[ "t" ] [ "out2" ];
  check cb "fresh again" true (RC.find rc ~key:"k1" () = RC.Hit [ "out2" ]);
  (* view-level invalidation (schema evolution: no version movement) *)
  RC.invalidate_view rc "v";
  check cb "gone after invalidate_view" true (RC.find rc ~key:"k1" () = RC.Miss);
  (* LRU bounding: capacity 2, third insert evicts the least recent *)
  RC.store rc ~view:"v" ~key:"a" ~deps:[ "t" ] [ "A" ];
  RC.store rc ~view:"v" ~key:"b" ~deps:[ "t" ] [ "B" ];
  ignore (RC.find rc ~key:"a" ());
  (* touch a so b is the LRU victim *)
  RC.store rc ~view:"v" ~key:"c" ~deps:[ "t" ] [ "C" ];
  check ci "bounded" 2 (RC.size rc);
  check cb "victim was the LRU entry" true (RC.find rc ~key:"b" () = RC.Miss);
  check cb "recent survivor" true (RC.find rc ~key:"a" () = RC.Hit [ "A" ]);
  let ctr name = List.assoc name (RC.counters rc) in
  check cb "eviction counted" true (ctr "result_cache_evictions" >= 1);
  check cb "hits counted" true (ctr "result_cache_hits" >= 3);
  check cb "invalidations counted" true (ctr "result_cache_invalidations" >= 2)

(* a hit through a slot does not move its entry: it marks it, and the
   next eviction that reaches it moves it to the front once instead *)
let test_result_cache_second_chance () =
  let db = Xdb_rel.Database.create () in
  ignore (Xdb_rel.Database.create_table db "t" [ { Xdb_rel.Table.col_name = "a"; col_type = Xdb_rel.Value.Tint } ]);
  let rc = RC.create ~capacity:2 db in
  let held = RC.slot () in
  check cb "an empty slot misses" true (RC.hit rc held = None);
  RC.store rc ~view:"v" ~key:"a" ~deps:[ "t" ] ~slot:held [ "A" ];
  RC.store rc ~view:"v" ~key:"b" ~deps:[ "t" ] [ "B" ];
  check cb "held hit" true (RC.hit rc held = Some [ "A" ]);
  (* a is the oldest, but referenced: b goes instead *)
  RC.store rc ~view:"v" ~key:"c" ~deps:[ "t" ] [ "C" ];
  check cb "b evicted" true (RC.find rc ~key:"b" () = RC.Miss);
  check ci "two entries" 2 (RC.size rc);
  (* the chance moved a to the front and cleared its mark *)
  RC.store rc ~view:"v" ~key:"d" ~deps:[ "t" ] [ "D" ];
  check cb "c evicted" true (RC.find rc ~key:"c" () = RC.Miss);
  RC.store rc ~view:"v" ~key:"e" ~deps:[ "t" ] [ "E" ];
  check cb "unmarked, a is evicted" true (RC.hit rc held = None);
  check cb "and gone from the table" true (RC.find rc ~key:"a" () = RC.Miss);
  (* a write makes a held entry miss without counting *)
  RC.store rc ~view:"v" ~key:"a" ~deps:[ "t" ] ~slot:held [ "A2" ];
  let hits = List.assoc "result_cache_hits" (RC.counters rc) in
  Xdb_rel.Database.bump_data_version db "t";
  check cb "stale: no held hit" true (RC.hit rc held = None);
  check ci "not counted" hits (List.assoc "result_cache_hits" (RC.counters rc))

(* a slot still holding an entry that left the cache, by eviction or by
   invalidation, keeps none of its page alive *)
let test_result_cache_slot_releases () =
  let db = Xdb_rel.Database.create () in
  ignore (Xdb_rel.Database.create_table db "t" [ { Xdb_rel.Table.col_name = "a"; col_type = Xdb_rel.Value.Tint } ]);
  let rc = RC.create ~capacity:1 db in
  let held = RC.slot () in
  let page = Weak.create 1 in
  let store_held key =
    let output = [ String.make 64 'p' ] in
    Weak.set page 0 (Some output);
    RC.store rc ~view:"v" ~key ~deps:[ "t" ] ~slot:held output
  in
  store_held "a";
  RC.store rc ~view:"w" ~key:"b" ~deps:[ "t" ] [ "B" ];
  Gc.full_major ();
  check cb "an evicted page is collected" false (Weak.check page 0);
  check cb "and not served" true (RC.hit rc held = None);
  store_held "a";
  check cb "held again" true (RC.hit rc held <> None);
  RC.invalidate_view rc "v";
  Gc.full_major ();
  check cb "an invalidated page is collected" false (Weak.check page 0);
  check cb "and not served" true (RC.hit rc held = None)

(* a members-only write: the patch is computed outside the cache mutex
   and installed only over the entry at the versions it was patched from;
   a patch that declines drops the entry *)
let test_result_cache_patch_install () =
  let module D = Xdb_xsltmark.Data in
  let dv = D.records_db 50 in
  let db = dv.D.db in
  let c =
    PL.compile db dv.D.view (Option.get (Xdb_xsltmark.Cases.find "metric")).Xdb_xsltmark.Cases.stylesheet
  in
  let recorded = ref None in
  let out = PL.run_rewrite ~on_members:(fun m -> recorded := Some m) db c in
  let members = Option.get !recorded and footprint () = c.PL.footprint in
  let rc = RC.create db in
  let ctr name = List.assoc name (RC.counters rc) in
  let write () =
    ignore
      (Xdb_sql.Engine.run_dml db (Xdb_sql.Parser.parse "UPDATE rows SET value = 1 WHERE id = 3"))
  in
  RC.store rc ~view:"v" ~key:"k" ~deps:c.PL.deps ~members out;
  write ();
  (* a second reader patches and installs while the first still patches *)
  let inner () = RC.find rc ~key:"k" ~footprint ~patch:(fun _ m _ -> Some ([ "inner" ], m)) () in
  let outer =
    RC.find rc ~key:"k" ~footprint
      ~patch:(fun _ m changes ->
        check Alcotest.(list (pair string (list int))) "the written rid" [ ("rows", [ 2 ]) ] changes;
        check cb "the inner reader patched" true (inner () = RC.Patched [ "inner" ]);
        Some ([ "outer" ], m))
      ()
  in
  check cb "each reader serves its own patch" true (outer = RC.Patched [ "outer" ]);
  check cb "the first install stays" true (RC.find rc ~key:"k" ~footprint () = RC.Hit [ "inner" ]);
  check ci "two patches counted" 2 (ctr "result_cache_patches");
  write ();
  check cb "a declined patch recomputes" true
    (RC.find rc ~key:"k" ~footprint ~patch:(fun _ _ _ -> None) () = RC.Dropped);
  check ci "the entry is gone" 0 (RC.size rc);
  check ci "counted as an invalidation" 1 (ctr "result_cache_invalidations")

(* ------------------------------------------------------------------ *)
(* A prepared statement's held entry                                   *)
(* ------------------------------------------------------------------ *)

let fig3_stylesheet name = (Option.get (Xdb_xsltmark.Cases.find name)).Xdb_xsltmark.Cases.stylesheet

(* a hit through the statement's held entry is a pointer chase: no key
   hash, no result-cache lock, and next to nothing allocated *)
let test_stmt_hit_allocation () =
  let module D = Xdb_xsltmark.Data in
  let dv = D.records_db 200 in
  let e = EN.create dv.D.db in
  EN.register_view e dv.D.view;
  let st = EN.prepare e ~view_name:"records_vu" ~stylesheet:(fig3_stylesheet "avts") in
  let first = EN.transform_stmt e st in
  let n = 1_000 in
  let hits0 = List.assoc "result_cache_hits" (EN.result_cache_counters e) in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (EN.transform_stmt e st))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check ci "every call a hit" (hits0 + n) (List.assoc "result_cache_hits" (EN.result_cache_counters e));
  check (Alcotest.list cs) "the stored page" first.EN.output (EN.transform_stmt e st).EN.output;
  if words > 16.0 then Alcotest.failf "a cached hit allocated %.1f minor words (at most 16)" words;
  EN.shutdown e

(* a statement served after each event that moves or kills its held
   entry gives a recompute's bytes, counted as the keyed path counts it *)
let test_stmt_held_entry_events () =
  let module D = Xdb_xsltmark.Data in
  let dv = D.records_db 150 in
  let e = EN.create ~result_capacity:1 dv.D.db in
  EN.register_view e dv.D.view;
  let avts = fig3_stylesheet "avts" in
  let st = EN.prepare e ~view_name:"records_vu" ~stylesheet:avts in
  let ctr name = List.assoc name (EN.result_cache_counters e) in
  let nocache = { EN.default_run_options with EN.result_cache = false } in
  (* serve the statement: its bytes equal a recompute, and the hit and
     miss counters move by the expected amounts *)
  let serve what ~hits ~misses =
    let h0 = ctr "result_cache_hits" and m0 = ctr "result_cache_misses" in
    let served = (EN.transform_stmt e st).EN.output in
    check (Alcotest.list cs) (what ^ ": served = recomputed") (EN.transform_stmt ~options:nocache e st).EN.output
      served;
    check (Alcotest.pair ci ci) (what ^ ": hits, misses")
      (hits, misses)
      (ctr "result_cache_hits" - h0, ctr "result_cache_misses" - m0)
  in
  serve "first" ~hits:0 ~misses:1;
  serve "held" ~hits:1 ~misses:0;
  (* capacity 1: a keyed store of another page evicts the held one, its
     referenced bit only buying it the one second chance *)
  ignore (EN.transform e ~view_name:"records_vu" ~stylesheet:(fig3_stylesheet "metric"));
  check ci "one entry" 1 (EN.result_cache_size e);
  serve "evicted" ~hits:0 ~misses:1;
  serve "held again" ~hits:1 ~misses:0;
  (* an INSERT drops the page; a keyed transform of the same text
     recomputes and re-stores it under the statement's key *)
  ignore (EN.execute e "INSERT INTO rows VALUES (1, 9001, 'inserted', 5, 'x')");
  let h0 = ctr "result_cache_hits" in
  let keyed = EN.transform e ~view_name:"records_vu" ~stylesheet:avts in
  check ci "the keyed read recomputed" h0 (ctr "result_cache_hits");
  serve "re-stored by a keyed transform" ~hits:1 ~misses:0;
  check (Alcotest.list cs) "the keyed page" keyed.EN.output (EN.transform_stmt e st).EN.output;
  (* re-registration drops the view's entries and recompiles the
     statement *)
  EN.register_view e dv.D.view;
  serve "view re-registered" ~hits:0 ~misses:1;
  serve "held after re-registration" ~hits:1 ~misses:0;
  (* ANALYZE recompiles the statement; its page is still served *)
  let stale0 = List.assoc "cache_stale" (EN.registry_counters e) in
  ignore (EN.execute e "ANALYZE");
  serve "after ANALYZE" ~hits:1 ~misses:0;
  check cb "the statement recompiled" true (List.assoc "cache_stale" (EN.registry_counters e) > stale0);
  (* with the cache off nothing is counted *)
  let h0 = ctr "result_cache_hits" and m0 = ctr "result_cache_misses" in
  let off = (EN.transform_stmt ~options:nocache e st).EN.output in
  check (Alcotest.list cs) "result_cache = false: recomputed" (EN.transform_stmt e st).EN.output off;
  check ci "result_cache = false counts nothing" (h0 + 1) (ctr "result_cache_hits");
  check ci "result_cache = false counts no miss" m0 (ctr "result_cache_misses");
  EN.shutdown e

(* two reader domains serve the four prepared Figure 3 pages while a
   writer domain issues random point UPDATEs of [rows.value],
   [rows.name] and [item.amount].  Every page a reader was served must
   equal the recompute at some version between the read's start and
   its end: [lo] writes had finished when it started, at most [hi] had
   begun when it ended.  The versions' pages are recomputed afterwards,
   by replaying the writes over fresh copies of the data, so that the
   writes come close together *)
let test_concurrent_readers_and_writer () =
  let module D = Xdb_xsltmark.Data in
  let rows = 150 and regions = 12 and writes = 100 in
  let open_pages () =
    let open_engine (dv : D.dbview) =
      let e = EN.create dv.D.db in
      EN.register_view e dv.D.view;
      e
    in
    let er = open_engine (D.records_db rows) and es = open_engine (D.sales_db regions 4) in
    ( (er, es),
      Array.of_list
        (List.map
           (fun (e, view_name, name) -> (e, EN.prepare e ~view_name ~stylesheet:(fig3_stylesheet name)))
           [ (er, "records_vu", "avts"); (er, "records_vu", "metric"); (es, "sales_vu", "chart");
             (es, "sales_vu", "total") ]) )
  in
  let (er, es), pages = open_pages () in
  let rng = Random.State.make [| 32 |] in
  (* (on the records engine, statement) per write *)
  let queries =
    Array.init writes (fun w ->
        match Random.State.int rng 3 with
        | 0 ->
            ( true,
              Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" (Random.State.int rng 10_000)
                (1 + Random.State.int rng rows) )
        | 1 -> (true, Printf.sprintf "UPDATE rows SET name = 'w%d' WHERE id = %d" w (1 + Random.State.int rng rows))
        | _ ->
            ( false,
              Printf.sprintf "UPDATE item SET amount = %d WHERE rid = %d" (1 + Random.State.int rng 500)
                (Random.State.int rng regions) ))
  in
  let begun = Atomic.make 0 and finished = Atomic.make 0 in
  let writer () =
    Array.iteri
      (fun w (records, q) ->
        Atomic.set begun (w + 1);
        ignore (EN.execute (if records then er else es) q);
        Atomic.set finished (w + 1);
        (* writes in pairs: some land between a reader's compute and
           its store, where only the lock keeps them out *)
        if w mod 2 = 1 then Unix.sleepf 0.0001)
      queries
  in
  (* a read that repeats the last one recorded for its page, window and
     bytes (the same cached list) is not recorded again *)
  let reader seed () =
    let rng = Random.State.make [| seed |] and served = ref [] in
    let last = Array.make (Array.length pages) (-1, -1, []) in
    while Atomic.get finished < writes do
      let i = Random.State.int rng (Array.length pages) in
      let e, st = pages.(i) in
      let lo = Atomic.get finished in
      let out = (EN.transform_stmt e st).EN.output in
      let hi = Atomic.get begun in
      match last.(i) with
      | lo', hi', out' when lo' = lo && hi' = hi && out' == out -> ()
      | _ ->
          last.(i) <- (lo, hi, out);
          served := (i, lo, hi, out) :: !served
    done;
    !served
  in
  let readers = List.map (fun seed -> Domain.spawn (reader seed)) [ 1; 2 ] in
  let w = Domain.spawn writer in
  Domain.join w;
  let served = List.concat_map Domain.join readers in
  EN.shutdown er;
  EN.shutdown es;
  check cb "the readers were served" true (List.length served > 0);
  (* version [v]'s pages: the first [v] writes replayed *)
  let (rer, res), replay = open_pages () in
  let nocache = { EN.default_run_options with EN.result_cache = false } in
  let recompute () = Array.map (fun (e, st) -> (EN.transform_stmt ~options:nocache e st).EN.output) replay in
  let versions =
    Array.init (writes + 1) (fun v ->
        if v > 0 then (
          let records, q = queries.(v - 1) in
          ignore (EN.execute (if records then rer else res) q));
        recompute ())
  in
  EN.shutdown rer;
  EN.shutdown res;
  List.iter
    (fun (i, lo, hi, out) ->
      let rec at v = v <= hi && (versions.(v).(i) = out || at (v + 1)) in
      if not (at lo) then Alcotest.failf "page %d served between versions %d and %d matches none" i lo hi)
    served

(* the result cache is probed before the plan: a page it serves costs
   no binding, so no optimiser pass, even when the text's binding would
   not replay the template's current variant *)
let test_result_cache_before_binding () =
  let module D = Xdb_xsltmark.Data in
  let dv = D.records_db 200 in
  let e = EN.create dv.D.db in
  EN.register_view e dv.D.view;
  ignore (EN.execute e "ANALYZE");
  let opts = { EN.default_run_options with EN.collect_metrics = true } in
  let read k = EN.transform ~options:opts e ~view_name:"records_vu" ~stylesheet:(Xdb_xsltmark.Cases.dbonerow_stylesheet k) in
  let opt_stages r =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"opt_" name)
      (Xdb_core.Metrics.stages (Option.get r.EN.metrics))
  in
  let first = read 0 in
  check cb "a compile runs the optimiser" true (opt_stages first <> []);
  (* key 5 re-optimises the template away from key 0's variant *)
  check cb "another binding re-optimises" true (opt_stages (read 5) <> []);
  let again = read 0 in
  check ci "served from the result cache: no optimiser pass" 0 (List.length (opt_stages again));
  check Alcotest.(list string) "the first read's bytes" first.EN.output again.EN.output;
  check ci "a hit" 1 (List.assoc "result_cache_hits" (EN.result_cache_counters e));
  EN.shutdown e

let test_engine_result_cache () =
  let db, view = setup_example1 () in
  let engine = EN.create db in
  EN.register_view engine view;
  let ctr name = List.assoc name (EN.result_cache_counters engine) in
  let with_metrics = { EN.default_run_options with EN.collect_metrics = true } in
  let t () =
    EN.transform ~options:with_metrics engine ~view_name:"dept_emp"
      ~stylesheet:example1_stylesheet
  in
  let hit_counter r =
    match r.EN.metrics with
    | Some m -> List.assoc "result_cache_hit" (Xdb_core.Metrics.counters m)
    | None -> Alcotest.fail "metrics requested"
  in
  let r1 = t () in
  check ci "first run is a miss" 0 (hit_counter r1);
  let r2 = t () in
  check ci "second run served from cache" 1 (hit_counter r2);
  check (Alcotest.list cs) "cached bytes identical" r1.EN.output r2.EN.output;
  check cb "hits counted" true (ctr "result_cache_hits" >= 1);
  (* DML through execute invalidates: next run recomputes new output *)
  ignore (EN.execute engine "UPDATE emp SET sal = 9999 WHERE ename = 'CLARK'");
  let r3 = t () in
  check ci "post-write run recomputed" 0 (hit_counter r3);
  check cb "post-write output differs" true (r2.EN.output <> r3.EN.output);
  check cb "invalidation counted" true (ctr "result_cache_invalidations" >= 1);
  (* the recompute is cached again *)
  check ci "re-cached" 1 (hit_counter (t ()));
  (* publish caches per (view, indent) *)
  let p indent =
    EN.publish
      ~options:{ with_metrics with EN.indent = indent }
      engine ~view_name:"dept_emp"
  in
  check ci "publish first miss" 0 (hit_counter (p false));
  check ci "publish then hit" 1 (hit_counter (p false));
  check ci "indent is a different key" 0 (hit_counter (p true));
  check cb "indent changes bytes" true ((p true).EN.output <> (p false).EN.output);
  (* re-registering the view (schema evolution) drops its entries even
     though no data version moved *)
  EN.register_view engine view;
  check ci "invalidated by re-registration" 0 (hit_counter (t ()));
  (* writes to unrelated tables leave entries valid *)
  ignore
    (Xdb_rel.Database.create_table db "unrelated"
       [ { Xdb_rel.Table.col_name = "x"; col_type = Xdb_rel.Value.Tint } ]);
  ignore (EN.execute engine "INSERT INTO unrelated VALUES (1)");
  check ci "unrelated write keeps cache entries" 1 (hit_counter (t ()));
  EN.shutdown engine

(* a cycle of the paper's Figure 3 pages over changing data: a value
   UPDATE of one [rows] row keeps the avts page (it never reads
   [rows.value]) and patches the metric page (only its members read it);
   an amount UPDATE of one region's items patches chart and total (only
   that region's member reads them, through its correlated [item]
   probe).  The first cycle recomputes metric, chart and total: a page
   computed once is not recorded.  Every page served equals a forced
   recompute. *)
let test_fig3_cycle_keeps_and_patches () =
  let module D = Xdb_xsltmark.Data in
  let rdv = D.records_db 300 and sdv = D.sales_db 20 5 in
  let open_engine (dv : D.dbview) =
    let e = EN.create dv.D.db in
    EN.register_view e dv.D.view;
    ignore (EN.execute e "ANALYZE");
    e
  in
  let er = open_engine rdv and es = open_engine sdv in
  let stylesheet name = (Option.get (Xdb_xsltmark.Cases.find name)).Xdb_xsltmark.Cases.stylesheet in
  let page =
    List.map
      (fun (e, view_name, name) -> (name, e, EN.prepare e ~view_name ~stylesheet:(stylesheet name)))
      [ (er, "records_vu", "avts"); (er, "records_vu", "metric"); (es, "sales_vu", "chart"); (es, "sales_vu", "total") ]
  in
  let with_metrics = { EN.default_run_options with EN.collect_metrics = true } in
  let read () =
    List.map
      (fun (name, e, st) ->
        let r = EN.transform_stmt ~options:with_metrics e st in
        let m = Xdb_core.Metrics.counters (Option.get r.EN.metrics) in
        let fresh =
          EN.transform_stmt ~options:{ EN.default_run_options with EN.result_cache = false } e st
        in
        check (Alcotest.list cs) (name ^ " served = recomputed") fresh.EN.output r.EN.output;
        (name, (List.assoc "result_cache_hit" m, List.assoc "result_cache_patched" m)))
      page
  in
  let cycle i =
    ignore (EN.execute er (Printf.sprintf "UPDATE rows SET value = %d WHERE id = 17" (4242 + i)));
    ignore (EN.execute es (Printf.sprintf "UPDATE item SET amount = %d WHERE rid = 3" (77 + i)));
    read ()
  in
  ignore (read ());
  check
    Alcotest.(list (pair string (pair int int)))
    "first cycle: avts kept, metric recorded, chart and total recomputed"
    [ ("avts", (1, 0)); ("metric", (0, 0)); ("chart", (0, 0)); ("total", (0, 0)) ]
    (cycle 0);
  let ctr e name = List.assoc name (EN.result_cache_counters e) in
  let before = List.map (fun n -> ctr er n + ctr es n) [ "result_cache_kept"; "result_cache_patches" ] in
  check
    Alcotest.(list (pair string (pair int int)))
    "avts kept, metric, chart and total patched"
    [ ("avts", (1, 0)); ("metric", (0, 1)); ("chart", (0, 1)); ("total", (0, 1)) ]
    (cycle 1);
  check Alcotest.(list int) "one kept, three patches counted"
    (List.map2 ( + ) before [ 1; 3 ])
    (List.map (fun n -> ctr er n + ctr es n) [ "result_cache_kept"; "result_cache_patches" ]);
  EN.shutdown er;
  EN.shutdown es

(* fig3-pages replayed at moderate scale: each cycle is the workload's
   two point UPDATEs (one [rows.value] by id, one region's
   [item.amount]), then the four prepared reports read once and served
   three more times from the cache.  Every page served is compared with
   a forced recompute, and every tenth cycle's with the functional VM.  From the second cycle on, avts is kept and
   metric, chart and total are patched, and a read page probes the
   B-trees at most 10 times (one bar and one total re-emitted, where a
   recompute of chart and total probes once per region and aggregate). *)
let test_fig3_replay_patches_every_page () =
  let module D = Xdb_xsltmark.Data in
  let rows = 2_000 and regions = 200 and items = 20 and cycles = 50 in
  let rdv = D.records_db rows and sdv = D.sales_db regions items in
  let open_engine (dv : D.dbview) =
    let e = EN.create dv.D.db in
    EN.register_view e dv.D.view;
    e
  in
  let er = open_engine rdv and es = open_engine sdv in
  let stylesheet name = (Option.get (Xdb_xsltmark.Cases.find name)).Xdb_xsltmark.Cases.stylesheet in
  let page =
    List.map
      (fun (e, view_name, name) -> (name, e, EN.prepare e ~view_name ~stylesheet:(stylesheet name)))
      [ (er, "records_vu", "avts"); (er, "records_vu", "metric"); (es, "sales_vu", "chart"); (es, "sales_vu", "total") ]
  in
  let probes () =
    List.fold_left
      (fun n (dv : D.dbview) ->
        List.fold_left
          (fun n t ->
            List.fold_left
              (fun n (ix : Xdb_rel.Table.index) -> n + Xdb_rel.Btree.probes ix.Xdb_rel.Table.tree)
              n (Xdb_rel.Database.table dv.D.db t).Xdb_rel.Table.indexes)
          n (Xdb_rel.Database.table_names dv.D.db))
      0 [ rdv; sdv ]
  in
  (* the functional baseline: materialise the view, run the XSLTVM *)
  let functional name =
    let dv = if name = "chart" || name = "total" then sdv else rdv in
    PL.run_functional dv.D.db (PL.compile dv.D.db dv.D.view (stylesheet name))
  in
  let with_metrics = { EN.default_run_options with EN.collect_metrics = true } in
  let rng = Random.State.make [| 22 |] in
  let outcome = Alcotest.(list (pair string (pair int int))) in
  List.iter (fun (_, e, st) -> ignore (EN.transform_stmt e st)) page;
  for c = 1 to cycles do
    ignore
      (EN.execute er
         (Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" (Random.State.int rng 10_000)
            (1 + Random.State.int rng rows)));
    ignore
      (EN.execute es
         (Printf.sprintf "UPDATE item SET amount = %d WHERE rid = %d" (1 + Random.State.int rng 500)
            (Random.State.int rng regions)));
    let p0 = probes () in
    let served =
      List.map
        (fun (name, e, st) ->
          let r = EN.transform_stmt ~options:with_metrics e st in
          let m = Xdb_core.Metrics.counters (Option.get r.EN.metrics) in
          (name, r.EN.output, (List.assoc "result_cache_hit" m, List.assoc "result_cache_patched" m)))
        page
    in
    let read_probes = probes () - p0 in
    List.iter2
      (fun (name, e, st) (_, output, _) ->
        let fresh =
          EN.transform_stmt ~options:{ EN.default_run_options with EN.result_cache = false } e st
        in
        check (Alcotest.list cs) (Printf.sprintf "cycle %d: %s served = recomputed" c name)
          fresh.EN.output output;
        if c mod 10 = 0 then
          check (Alcotest.list cs) (Printf.sprintf "cycle %d: %s served = functional VM" c name)
            (functional name) output;
        for _ = 1 to 3 do
          check (Alcotest.list cs) (Printf.sprintf "cycle %d: %s cached = read" c name) output
            (EN.transform_stmt e st).EN.output
        done)
      page served;
    if c > 1 then (
      check outcome
        (Printf.sprintf "cycle %d: avts kept, metric, chart and total patched" c)
        [ ("avts", (1, 0)); ("metric", (0, 1)); ("chart", (0, 1)); ("total", (0, 1)) ]
        (List.map (fun (name, _, o) -> (name, o)) served);
      if read_probes > 10 then
        Alcotest.failf "cycle %d: a read page probed the B-trees %d times" c read_probes)
  done;
  EN.shutdown er;
  EN.shutdown es

(* the recording the result cache holds for [st], if any, checked
   against the page it describes ({!Xdb_rel.Exec.check_members}) *)
let check_recording e st served =
  match EN.stmt_recording e st with
  | Some (output, members) ->
      check (Alcotest.list cs) "the recording describes the served page" served output;
      Xdb_rel.Exec.check_members members output
  | None -> ()

(* a hundred patches that each change a member's length: the member
   lengths live in a Fenwick tree that each patch updates in place;
   every page served equals a forced recompute, and after every read the
   recording re-emits to the page's bytes where the tree places them *)
let test_patch_length_changes () =
  let module D = Xdb_xsltmark.Data in
  let dv = D.records_db 200 in
  let e = EN.create dv.D.db in
  EN.register_view e dv.D.view;
  let st =
    EN.prepare e ~view_name:"records_vu"
      ~stylesheet:(Option.get (Xdb_xsltmark.Cases.find "metric")).Xdb_xsltmark.Cases.stylesheet
  in
  let with_metrics = { EN.default_run_options with EN.collect_metrics = true } in
  let patched = ref 0 in
  ignore (EN.transform_stmt e st);
  for i = 1 to 100 do
    ignore
      (EN.execute e
         (Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d"
            (if i mod 2 = 0 then 7 else 77777)
            (1 + (i * 37 mod 200))));
    let r = EN.transform_stmt ~options:with_metrics e st in
    let m = Xdb_core.Metrics.counters (Option.get r.EN.metrics) in
    patched := !patched + List.assoc "result_cache_patched" m;
    check (Alcotest.list cs) (Printf.sprintf "write %d: served = recomputed" i)
      (EN.transform_stmt ~options:{ EN.default_run_options with EN.result_cache = false } e st).EN.output
      r.EN.output;
    check_recording e st r.EN.output
  done;
  check ci "every read after the first patched" 99 !patched;
  EN.shutdown e

(* random UPDATE sequences over the Figure 3 pages, each read page
   under the result cache compared byte for byte with a recompute, and
   the read's recording checked against it.  [metric] over [records_db]
   takes value writes that move a member across the big/mid/small
   branches (changing its length), often on a few rows and often more
   than 33 on one entry.  [chart] and [total] over [sales_db] take
   amount writes per region (several items each, some NULL), region key
   changes (duplicate keys across driving rows; they recompute, then a
   write to the new key patches the new recording), and writes of more
   than 32 items (they recompute).  Reads flagged by the generator are
   also compared with the functional VM. *)
type page_op =
  | Value of int * int  (** [rows.value] of one id *)
  | Amount of int * int option  (** [item.amount] of one region's items, or NULL *)
  | Amounts of int * int  (** [item.amount] of every region below the first: over 32 items *)
  | Rekey of int * int  (** [region.rid] from the first key to the second *)
  | Read of bool  (** read the three pages; [true]: also check the functional VM *)

let show_page_op = function
  | Value (k, v) -> Printf.sprintf "value(%d)=%d" k v
  | Amount (r, v) ->
      Printf.sprintf "amount(%d)=%s" r (match v with Some v -> string_of_int v | None -> "NULL")
  | Amounts (r, v) -> Printf.sprintf "amounts(<%d)=%d" r v
  | Rekey (a, b) -> Printf.sprintf "rekey(%d->%d)" a b
  | Read f -> if f then "READ*" else "read"

let patch_rows = 120 and patch_regions = 10 and patch_items = 5

let page_op_gen =
  let open QCheck.Gen in
  let id = oneof [ int_range 1 3; int_range 1 patch_rows ] in
  let value = oneof [ int_range 0 999; int_range 1001 4999; int_range 5001 99_999 ] in
  let region = int_range 0 (patch_regions - 1) in
  frequency
    [
      (8, map2 (fun k v -> [ Value (k, v) ]) id value);
      (3, map2 (fun r v -> [ Amount (r, v) ]) region (opt ~ratio:0.8 (int_range 1 500)));
      (1, map2 (fun r v -> [ Amounts (r, v) ]) (int_range 7 patch_regions) (int_range 1 500));
      ( 1,
        map3
          (fun a b v -> [ Rekey (a, b); Read false; Amount (b, Some v) ])
          region region (int_range 1 500) );
      (8, map (fun f -> [ Read f ]) (frequency [ (1, return true); (7, return false) ]));
    ]

let patch_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_page_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(map List.concat (list_size (int_range 30 200) page_op_gen))

let prop_patch_sequences patches =
  QCheck.Test.make ~name:"patched pages = recomputed pages over random UPDATE sequences" ~count:30
    patch_ops_arb (fun ops ->
      let module D = Xdb_xsltmark.Data in
      let rdv = D.records_db patch_rows and sdv = D.sales_db patch_regions patch_items in
      let open_engine (dv : D.dbview) =
        let e = EN.create dv.D.db in
        EN.register_view e dv.D.view;
        e
      in
      let er = open_engine rdv and es = open_engine sdv in
      let stylesheet name = (Option.get (Xdb_xsltmark.Cases.find name)).Xdb_xsltmark.Cases.stylesheet in
      let page =
        List.map
          (fun (e, dv, view_name, name) ->
            (name, e, dv, EN.prepare e ~view_name ~stylesheet:(stylesheet name)))
          [
            (er, rdv, "records_vu", "metric");
            (es, sdv, "sales_vu", "chart");
            (es, sdv, "sales_vu", "total");
          ]
      in
      let with_metrics = { EN.default_run_options with EN.collect_metrics = true } in
      let read functional =
        List.iter
          (fun (name, e, (dv : D.dbview), st) ->
            let r = EN.transform_stmt ~options:with_metrics e st in
            let m = Xdb_core.Metrics.counters (Option.get r.EN.metrics) in
            patches := !patches + List.assoc "result_cache_patched" m;
            let fresh =
              EN.transform_stmt ~options:{ EN.default_run_options with EN.result_cache = false } e st
            in
            check (Alcotest.list cs) (name ^ ": served = recomputed") fresh.EN.output r.EN.output;
            check_recording e st r.EN.output;
            if functional then
              check (Alcotest.list cs) (name ^ ": served = functional VM")
                (PL.run_functional dv.D.db (PL.compile dv.D.db dv.D.view (stylesheet name)))
                r.EN.output)
          page
      in
      (* two reads first: a page computed again is the one recorded *)
      read false;
      read false;
      List.iter
        (function
          | Value (k, v) ->
              ignore (EN.execute er (Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" v k))
          | Amount (r, v) ->
              ignore
                (EN.execute es
                   (Printf.sprintf "UPDATE item SET amount = %s WHERE rid = %d"
                      (match v with Some v -> string_of_int v | None -> "NULL")
                      r))
          | Amounts (r, v) ->
              ignore (EN.execute es (Printf.sprintf "UPDATE item SET amount = %d WHERE rid < %d" v r))
          | Rekey (a, b) ->
              ignore (EN.execute es (Printf.sprintf "UPDATE region SET rid = %d WHERE rid = %d" b a))
          | Read f -> read f)
        ops;
      read true;
      EN.shutdown er;
      EN.shutdown es;
      true)

let test_patch_sequences () =
  let patches = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 27 |]) (prop_patch_sequences patches);
  (* the sequences reach the patch path, not only recomputes *)
  if !patches < 100 then Alcotest.failf "only %d pages were patched" !patches

let test_prepared_statements () =
  let db, view = setup_example1 () in
  let engine = EN.create db in
  EN.register_view engine view;
  let stmt = EN.prepare engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet in
  check cs "stmt remembers its view" "dept_emp" (EN.stmt_view stmt);
  let nc = { EN.default_run_options with EN.result_cache = false } in
  let r1 = EN.transform_stmt ~options:nc engine stmt in
  let misses0 = List.assoc "cache_misses" (EN.registry_counters engine) in
  (* re-running the statement does not even consult the registry *)
  let hits0 = List.assoc "cache_hits" (EN.registry_counters engine) in
  let r2 = EN.transform_stmt ~options:nc engine stmt in
  check (Alcotest.list cs) "stmt reruns agree" r1.EN.output r2.EN.output;
  check ci "no registry lookup on the hot path" hits0
    (List.assoc "cache_hits" (EN.registry_counters engine));
  check ci "no recompile either" misses0
    (List.assoc "cache_misses" (EN.registry_counters engine));
  (* ANALYZE moves the stats version: the stmt revalidates through the
     registry (stale entry, recompiled) and still answers identically *)
  ignore (EN.execute engine "ANALYZE");
  let r3 = EN.transform_stmt ~options:nc engine stmt in
  check (Alcotest.list cs) "post-ANALYZE stmt agrees" r1.EN.output r3.EN.output;
  check cb "revalidation recompiled" true
    (List.assoc "cache_stale" (EN.registry_counters engine) >= 1);
  (* explain over the same stmt *)
  check cb "explain_stmt has a plan" true (contains "SQL/XML plan" (EN.explain_stmt engine stmt));
  check cb "explain_analyze_stmt reports actuals" true
    (contains "actual=" (EN.explain_analyze_stmt engine stmt));
  (* string verbs are wrappers over the same machinery *)
  let direct =
    EN.transform ~options:nc engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet
  in
  check (Alcotest.list cs) "string verb ≡ stmt verb" r1.EN.output direct.EN.output;
  EN.shutdown engine

let test_run_source_verb () =
  let db, view = setup_example1 () in
  let engine = EN.create db in
  EN.register_view engine view;
  let via_run =
    EN.run engine (EN.View "dept_emp") ~stylesheet:example1_stylesheet
  in
  let via_transform = EN.transform engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet in
  check (Alcotest.list cs) "View source ≡ transform" via_transform.EN.output via_run.EN.output;
  EN.shutdown engine;
  (* shredded source *)
  let engine2 = EN.create (Xdb_rel.Database.create ()) in
  let doc = Xdb_xsltmark.Data.records_doc 10 in
  let id = EN.store_shredded engine2 doc in
  let ss =
    {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="@*|node()"><xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy></xsl:template>
</xsl:stylesheet>|}
  in
  let all = EN.run engine2 (EN.Shredded None) ~stylesheet:ss in
  let one = EN.run engine2 (EN.Shredded (Some [ id ])) ~stylesheet:ss in
  check (Alcotest.list cs) "Shredded None = all docs" all.EN.output one.EN.output;
  (* storing another document bumps the store's data version, so the
     cached all-documents result is invalidated, not served stale *)
  ignore (EN.store_shredded engine2 (Xdb_xsltmark.Data.records_doc 5));
  let all2 = EN.run engine2 (EN.Shredded None) ~stylesheet:ss in
  check ci "new document visible through the cache" 2 (List.length all2.EN.output);
  EN.shutdown engine2

let identity_stylesheet =
  {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="@*|node()"><xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy></xsl:template>
</xsl:stylesheet>|}

let test_engine_shredded () =
  let engine = EN.create (Xdb_rel.Database.create ()) in
  let docs = List.init 3 (fun i -> Xdb_xsltmark.Data.records_doc (10 + (5 * i))) in
  let ids = List.map (EN.store_shredded engine) docs in
  check (Alcotest.list ci) "docids are sequential" [ 1; 2; 3 ] ids;
  let dc = PL.compile_for_document identity_stylesheet ~example_doc:(List.hd docs) in
  let direct = List.map (PL.transform_functional dc) docs in
  let shredded ?options ?docids engine =
    EN.run ?options engine (EN.Shredded docids) ~stylesheet:identity_stylesheet
  in
  let r = shredded engine in
  check (Alcotest.list cs) "shredded transform ≡ direct VM transform" direct r.EN.output;
  (* sequential path: the relational VM handles every doc, batched *)
  (* metric-asserting reruns must recompute, not serve the cached bytes *)
  let rm =
    shredded
      ~options:{ EN.default_run_options with EN.collect_metrics = true; result_cache = false }
      engine
  in
  check (Alcotest.list cs) "metrics run identical" direct rm.EN.output;
  (match rm.EN.metrics with
  | None -> Alcotest.fail "metrics requested but absent"
  | Some m ->
      let ctr name =
        match List.assoc_opt name (Xdb_core.Metrics.counters m) with
        | Some v -> v
        | None -> 0
      in
      check cb "shred_vm stage timed" true
        (List.mem_assoc "shred_vm" (Xdb_core.Metrics.stages m));
      check ci "every doc ran relationally" 3 (ctr "shred_vm_docs");
      check ci "no per-doc DOM fallback" 0 (ctr "shred_vm_fallback_docs");
      check cb "steps evaluated batched" true (ctr "shred_batch_steps" > 0);
      check ci "no per-context DOM fallback" 0 (ctr "shred_dom_fallbacks"));
  let r2 = shredded ~docids:[ 2 ] engine in
  check (Alcotest.list cs) "docids narrow the run" [ List.nth direct 1 ] r2.EN.output;
  (* relational XPath over the store answers like the DOM interpreter *)
  let q = "//row[2]/id" in
  let dom =
    Xdb_rel.Shred.serialize_dom
      (Xdb_xpath.Eval.select (Xdb_xpath.Eval.make_context (List.hd docs)) q)
  in
  check (Alcotest.list cs) "query_shredded ≡ DOM" dom (EN.query_shredded engine ~docid:1 q);
  (* an empty store transforms to nothing rather than failing *)
  let empty = EN.create (Xdb_rel.Database.create ()) in
  check (Alcotest.list cs) "empty store" []
    (shredded empty).EN.output;
  EN.shutdown empty;
  EN.shutdown engine

(* a shredded run over a pool runs each document's shredded VM (or its
   per-document fallback) on the pool's domains: same bytes and the same
   step-strategy totals as the sequential run.  Only the document with a
   [special] element leaves the relational subset — its template reads a
   constructed fragment variable inside an expression *)
let test_shredded_parallel () =
  let engine = EN.create (Xdb_rel.Database.create ()) in
  let docs =
    List.map Xdb_xml.Parser.parse
      [
        "<r><a>1</a><a>2</a></r>";
        "<r><a>3</a><special>x</special><a>4</a></r>";
        "<r><a>5</a></r>";
      ]
    @ [ Xdb_xsltmark.Data.records_doc 12 ]
  in
  List.iter (fun d -> ignore (EN.store_shredded engine d)) docs;
  let ss =
    {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/*"><out><xsl:apply-templates select="*"/></out></xsl:template>
<xsl:template match="a"><v><xsl:value-of select="."/></v></xsl:template>
<xsl:template match="special"><xsl:variable name="f"><w><xsl:value-of select="."/></w></xsl:variable><s><xsl:value-of select="concat(string($f), '!')"/></s></xsl:template>
</xsl:stylesheet>|}
  in
  let expected =
    List.map
      (fun d -> PL.transform_functional (PL.compile_for_document ss ~example_doc:d) d)
      docs
  in
  let run jobs =
    let r =
      EN.run
        ~options:
          { EN.default_run_options with EN.jobs; collect_metrics = true; result_cache = false }
        engine (EN.Shredded None) ~stylesheet:ss
    in
    let m = Option.get r.EN.metrics in
    let ctr name = Option.value ~default:0 (List.assoc_opt name (Xdb_core.Metrics.counters m)) in
    (r.EN.output, ctr)
  in
  let seq, seq_ctr = run 1 in
  check (Alcotest.list cs) "sequential ≡ DOM VM" expected seq;
  check ci "one document fell back" 1 (seq_ctr "shred_vm_fallback_docs");
  let par, par_ctr = run 3 in
  check (Alcotest.list cs) "jobs=3 ≡ jobs=1" seq par;
  List.iter
    (fun name -> check ci (name ^ " total") (seq_ctr name) (par_ctr name))
    [ "shred_batch_steps"; "shred_rel_steps"; "shred_dom_fallbacks"; "shred_vm_fallback_docs" ];
  check ci "every document counted once" (List.length docs)
    (par_ctr "shred_vm_docs" + par_ctr "shred_vm_fallback_docs");
  EN.shutdown engine

(* every XSLTMark case through the shredded path: byte-identical to the
   functional VM over the original document, with the relational VM
   carrying most of the suite (DOM fallbacks counted and bounded) *)
let test_shredded_xsltmark_parity () =
  let module MK = Xdb_xsltmark.Cases in
  let engine = EN.create (Xdb_rel.Database.create ()) in
  let size = 40 in
  let total = ref 0 and fallbacks = ref 0 in
  List.iter
    (fun (c : MK.case) ->
      let c = if c.MK.name = "dbonerow" then MK.dbonerow_for size else c in
      let doc = MK.doc_for c size in
      let docid = EN.store_shredded engine doc in
      let dc = PL.compile_for_document c.MK.stylesheet ~example_doc:doc in
      let expected = PL.transform_functional dc doc in
      let r =
        EN.run
          ~options:{ EN.default_run_options with EN.collect_metrics = true }
          engine
          (EN.Shredded (Some [ docid ]))
          ~stylesheet:c.MK.stylesheet
      in
      check (Alcotest.list cs) ("shredded ≡ DOM: " ^ c.MK.name) [ expected ] r.EN.output;
      incr total;
      match r.EN.metrics with
      | None -> Alcotest.fail "metrics requested but absent"
      | Some m ->
          let fb =
            match List.assoc_opt "shred_vm_fallback_docs" (Xdb_core.Metrics.counters m) with
            | Some v -> v
            | None -> 0
          in
          fallbacks := !fallbacks + fb)
    MK.all;
  check ci "whole suite stored and run" 40 !total;
  (* the relational subset must carry the bulk of the suite; a growing
     fallback count means the shredded VM lost coverage *)
  check cb
    (Printf.sprintf "DOM fallbacks bounded: %d of %d" !fallbacks !total)
    true
    (!fallbacks * 4 <= !total);
  EN.shutdown engine

(* the streamed top-level result keeps the merging tree builder's rules
   and each error's class: every case gives the DOM VM's bytes, or its
   Xdb_error class, and the pinned outcome *)
let test_shredded_streaming_edges () =
  let engine = EN.create (Xdb_rel.Database.create ()) in
  let doc = Xdb_xml.Parser.parse {|<r k="v"><a x="1">1</a><b/></r>|} in
  let docid = EN.store_shredded engine doc in
  let sheet body =
    Printf.sprintf
      {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="/">%s</xsl:template></xsl:stylesheet>|}
      body
  in
  let cls = function
    | XE.Serialize _ -> "serialize"
    | XE.Exec _ -> "exec"
    | e -> XE.to_string e
  in
  let dom ss =
    match
      Xdb_xml.Serializer.node_list_to_string
        (Xdb_xslt.Vm.transform (C.compile (Xdb_xslt.Parser.parse ss)) doc).X.children
    with
    | o -> Ok o
    | exception e -> (
        match XE.of_exn e with Some x -> Error (cls x) | None -> raise e)
  in
  let shredded ss =
    let options = { EN.default_run_options with EN.collect_metrics = true } in
    match EN.run ~options engine (EN.Shredded (Some [ docid ])) ~stylesheet:ss with
    | { EN.output = [ o ]; metrics = Some m } ->
        check ci "ran on the shredded VM" 1
          (Option.value ~default:0 (List.assoc_opt "shred_vm_docs" (Xdb_core.Metrics.counters m)));
        Ok o
    | _ -> Alcotest.fail "one output expected"
    | exception XE.Error x -> Error (cls x)
  in
  let outcome = Alcotest.(result string string) in
  List.iter
    (fun (name, body, expected) ->
      let ss = sheet body in
      check outcome (name ^ ": DOM VM") expected (dom ss);
      check outcome (name ^ ": shredded") expected (shredded ss))
    [
      ("empty value-of in a literal element", {|<e><xsl:value-of select="''"/></e>|}, Ok "<e/>");
      ("empty node-set value-of", {|<e><xsl:value-of select="r/nothing"/></e>|}, Ok "<e/>");
      ("top-level xsl:attribute", {|<xsl:attribute name="t">1</xsl:attribute><e/>|}, Ok "<e/>");
      ("top-level copied attribute", {|<xsl:copy-of select="r/@k"/><e/>|}, Ok "<e/>");
      ( "attribute after content",
        {|<e>t<xsl:attribute name="t">1</xsl:attribute></e>|},
        Error "exec" );
      ( "attribute after a copied element",
        {|<e><xsl:copy-of select="r/a"/><xsl:attribute name="t">1</xsl:attribute></e>|},
        Error "exec" );
      ("comment containing --", {|<xsl:comment>a--b</xsl:comment>|}, Error "serialize");
      ( "a repeated attribute replaces and moves last",
        {|<e a="1" b="2"><xsl:attribute name="a">3</xsl:attribute></e>|},
        Ok {|<e b="2" a="3"/>|} );
      ( "copied subtree with attributes",
        {|<o><xsl:copy-of select="r"/></o>|},
        Ok {|<o><r k="v"><a x="1">1</a><b/></r></o>|} );
    ];
  EN.shutdown engine

(* xsl:number counts preceding same-name siblings along the parent's
   rows: 2000 interleaved siblings number as the DOM VM numbers them *)
let test_shredded_number () =
  let names = [| "a"; "b"; "c" |] in
  let doc =
    Xdb_xml.Parser.parse
      ("<t>"
      ^ String.concat "" (List.init 2000 (fun i -> Printf.sprintf "<%s/>" names.(i mod 3 * (i mod 7) mod 3)))
      ^ "x</t>")
  in
  let ss =
    {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="/"><o><xsl:for-each select="t/node()"><xsl:number/>,</xsl:for-each></o></xsl:template></xsl:stylesheet>|}
  in
  let frag = Xdb_xslt.Vm.transform (C.compile (Xdb_xslt.Parser.parse ss)) doc in
  let expected = Xdb_xml.Serializer.node_list_to_string frag.X.children in
  let engine = EN.create (Xdb_rel.Database.create ()) in
  let docid = EN.store_shredded engine doc in
  let r = EN.run engine (EN.Shredded (Some [ docid ])) ~stylesheet:ss in
  check (Alcotest.list cs) "shredded xsl:number ≡ DOM VM" [ expected ] r.EN.output;
  check cb "numbers reach the hundreds" true (String.length expected > 2000 * 3);
  EN.shutdown engine

(* a stylesheet compiles once for shredded documents, however often it
   runs, under counters of its own *)
let test_shredded_compile_cache () =
  let engine = EN.create (Xdb_rel.Database.create ()) in
  let ids = List.init 3 (fun i -> EN.store_shredded engine (Xdb_xsltmark.Data.records_doc (5 + i))) in
  let counter name = List.assoc name (EN.registry_counters engine) in
  let other = {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform"/>|} in
  let options = { EN.default_run_options with EN.result_cache = false } in
  for _ = 1 to 4 do
    List.iter
      (fun id ->
        List.iter
          (fun ss -> ignore (EN.run ~options engine (EN.Shredded (Some [ id ])) ~stylesheet:ss))
          [ identity_stylesheet; other ])
      ids
  done;
  check ci "one compile per distinct stylesheet" 2 (counter "shred_misses");
  check ci "every other run a hit" 22 (counter "shred_hits");
  check ci "view plans untouched" 0 (counter "recompilations");
  EN.shutdown engine

let test_xdb_error () =
  let db, view = setup_example1 () in
  let engine = EN.create db in
  EN.register_view engine view;
  (* unknown view: a Compile error, rendered without a backtrace *)
  (match EN.prepare engine ~view_name:"nope" ~stylesheet:example1_stylesheet with
  | _ -> Alcotest.fail "unknown view must raise"
  | exception XE.Error (XE.Compile m) ->
      check cb "names the view" true (contains "nope" m);
      check cb "stable rendering" true
        (contains "compile error:" (XE.to_string (XE.Compile m)))
  | exception e -> Alcotest.fail ("expected Xdb_error.Error, got " ^ Printexc.to_string e));
  (* unparsable stylesheet: a Parse error naming the language *)
  (match EN.prepare engine ~view_name:"dept_emp" ~stylesheet:"<xsl:not-a-stylesheet" with
  | _ -> Alcotest.fail "bad stylesheet must raise"
  | exception XE.Error e ->
      check cb "classified as parse" true
        (match e with XE.Parse _ -> true | _ -> false));
  (* of_exn classifies library exceptions; foreign ones pass through *)
  check cb "exec classified" true
    (XE.of_exn (Xdb_rel.Exec.Exec_error "x") = Some (XE.Exec "x"));
  check cb "foreign exception unclassified" true (XE.of_exn Exit = None);
  (match XE.wrap ~stage:"exec" (fun () -> raise Exit) with
  | _ -> Alcotest.fail "wrap must re-raise"
  | exception Exit -> ());
  (match XE.wrap ~stage:"publish" (fun () -> failwith "f") with
  | _ -> Alcotest.fail "wrap must classify Failure"
  | exception XE.Error (XE.Publish m) -> check cs "failure attributed to stage" "f" m
  | exception e -> Alcotest.fail ("expected Publish error, got " ^ Printexc.to_string e));
  EN.shutdown engine

(* ------------------------------------------------------------------ *)
(* Concurrent serving (PR 7)                                           *)
(* ------------------------------------------------------------------ *)

module SV = Xdb_core.Server

(* poll a server-state condition with a deadline, so a scheduling
   regression fails the test instead of hanging the suite *)
let wait_until ?(timeout = 10.0) what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.fail ("timed out waiting for " ^ what);
    Unix.sleepf 0.002
  done

(* a Records-shape engine whose one view serves three different
   stylesheets — a mixed workload without multiple databases *)
let serving_env size =
  let dv = Xdb_xsltmark.Data.records_db size in
  let engine = EN.create dv.Xdb_xsltmark.Data.db in
  EN.register_view engine dv.Xdb_xsltmark.Data.view;
  let view_name = dv.Xdb_xsltmark.Data.view.Xdb_rel.Publish.view_name in
  let cases =
    List.map
      (fun name ->
        let c =
          if name = "dbonerow" then Xdb_xsltmark.Cases.dbonerow_for size
          else Option.get (Xdb_xsltmark.Cases.find name)
        in
        (name, c.Xdb_xsltmark.Cases.stylesheet))
      [ "dbonerow"; "avts"; "metric" ]
  in
  (engine, view_name, cases)

let test_server_sessions () =
  let engine, view_name, cases = serving_env 40 in
  let server = SV.create ~max_in_flight:2 engine in
  check cb "server exposes its engine" true (SV.engine server == engine);
  let sess = SV.open_session ~name:"alice" server in
  check cs "session name" "alice" (SV.session_name sess);
  (* a session's requests are the engine's requests, admitted *)
  List.iter
    (fun (_, ss) ->
      check (Alcotest.list cs) "server transform ≡ engine transform"
        (EN.transform engine ~view_name ~stylesheet:ss).EN.output
        (SV.transform sess ~view_name ~stylesheet:ss).EN.output)
    cases;
  (* per-session default options apply to every call… *)
  let mopts = { EN.default_run_options with EN.collect_metrics = true } in
  let msess = SV.open_session ~options:mopts server in
  let avts = List.assoc "avts" cases in
  check cb "session options apply" true
    ((SV.transform msess ~view_name ~stylesheet:avts).EN.metrics <> None);
  (* …and a per-call override beats them *)
  check cb "per-call override wins" true
    ((SV.transform ~options:EN.default_run_options msess ~view_name ~stylesheet:avts)
       .EN.metrics
    = None);
  (* publish / explain ride the same admission path *)
  check cb "publish admitted" true ((SV.publish sess ~view_name).EN.output <> []);
  check cb "explain admitted" true
    (contains "SQL/XML plan"
       (SV.explain sess ~view_name ~stylesheet:(List.assoc "metric" cases)));
  let snap = SV.snapshot server in
  check ci "server accepted every request" 7 snap.SV.accepted;
  check ci "…and completed them" 7 snap.SV.completed;
  check ci "none rejected" 0 snap.SV.rejected;
  check ci "alice's share" 5 (SV.session_snapshot sess).SV.completed;
  check ci "latency samples recorded" 7 snap.SV.service.SV.count;
  check cb "service times are positive" true (snap.SV.service.SV.p50_ms >= 0.0);
  (* closed sessions refuse further work; in flight nothing to drain *)
  SV.close_session sess;
  SV.close_session sess (* idempotent *);
  (match SV.submit sess (fun _ -> ()) with
  | () -> Alcotest.fail "closed session must refuse"
  | exception XE.Error (XE.Exec m) -> check cb "names the session" true (contains "alice" m));
  (* shutdown drains and rejects, but leaves the engine alone *)
  SV.shutdown server;
  SV.shutdown server (* idempotent *);
  (match SV.submit msess (fun _ -> ()) with
  | () -> Alcotest.fail "shut-down server must refuse"
  | exception XE.Error (XE.Overloaded _) -> ());
  (match SV.open_session server with
  | _ -> Alcotest.fail "shut-down server must refuse sessions"
  | exception XE.Error (XE.Exec _) -> ());
  check cb "engine survives server shutdown" true
    ((EN.transform engine ~view_name ~stylesheet:avts).EN.output <> []);
  EN.shutdown engine

let test_server_concurrent () =
  let engine, view_name, cases = serving_env 60 in
  (* reference outputs (also warms the plan cache) *)
  let reference =
    List.map
      (fun (n, ss) -> (n, (EN.transform engine ~view_name ~stylesheet:ss).EN.output))
      cases
  in
  let server = SV.create ~max_in_flight:2 ~max_queue:256 engine in
  let iters = 8 in
  let run_client i () =
    let sess = SV.open_session ~name:(Printf.sprintf "c%d" i) server in
    let ok = ref 0 in
    for _ = 1 to iters do
      List.iter
        (fun (name, ss) ->
          let r = SV.transform sess ~view_name ~stylesheet:ss in
          if r.EN.output = List.assoc name reference then incr ok)
        cases
    done;
    SV.close_session sess;
    !ok
  in
  let oks =
    List.map Domain.join (List.init test_jobs (fun i -> Domain.spawn (run_client i)))
  in
  let total = test_jobs * iters * List.length cases in
  check ci "every response byte-identical" total (List.fold_left ( + ) 0 oks);
  let snap = SV.snapshot server in
  check ci "all accepted" total snap.SV.accepted;
  check ci "all completed" total snap.SV.completed;
  check ci "none failed" 0 snap.SV.failed;
  check ci "none rejected" 0 snap.SV.rejected;
  check ci "nothing left in flight" 0 snap.SV.in_flight;
  check ci "queue drained" 0 snap.SV.queue_depth;
  (* the rendered metrics account for every request *)
  let counters = Xdb_core.Metrics.counters (SV.metrics server) in
  check ci "metrics accepted counter" total (List.assoc "accepted" counters);
  let bucket_sum prefix =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > String.length prefix
           && String.sub k 0 (String.length prefix) = prefix
        then acc + v
        else acc)
      0 counters
  in
  check ci "service histogram covers every request" total (bucket_sum "service_");
  check ci "queue-wait histogram covers every request" total (bucket_sum "queue_wait_");
  check ci "per-session counters sum to the server's" total
    (List.fold_left
       (fun acc i -> acc + List.assoc (Printf.sprintf "session.c%d.completed" i) counters)
       0
       (List.init test_jobs Fun.id));
  SV.shutdown server;
  EN.shutdown engine

(* a request parked on [blocker] occupies its slot for as long as the
   test wants; [release] is idempotent so failures still unblock it *)
let with_blocker f =
  let blocker = Mutex.create () in
  Mutex.lock blocker;
  let held = ref true in
  let release () =
    if !held then (
      held := false;
      Mutex.unlock blocker)
  in
  Fun.protect ~finally:release (fun () ->
      f
        (fun _ ->
          Mutex.lock blocker;
          Mutex.unlock blocker)
        release)

let test_server_overload () =
  let engine, view_name, cases = serving_env 20 in
  let _, ss = List.hd cases in
  let server = SV.create ~max_in_flight:1 ~max_queue:1 engine in
  let sess = SV.open_session ~name:"hot" server in
  with_blocker (fun park release ->
      let d1 = Domain.spawn (fun () -> SV.submit sess park) in
      wait_until "the first request to start" (fun () ->
          (SV.snapshot server).SV.in_flight = 1);
      let d2 = Domain.spawn (fun () -> SV.submit sess (fun _ -> ())) in
      wait_until "the queue to fill" (fun () -> (SV.snapshot server).SV.queue_depth = 1);
      (* past the bound: refused immediately, not blocked *)
      (match SV.transform sess ~view_name ~stylesheet:ss with
      | _ -> Alcotest.fail "expected Overloaded"
      | exception XE.Error (XE.Overloaded m) ->
          check cb "stable rendering" true
            (contains "overloaded:" (XE.to_string (XE.Overloaded m))));
      release ();
      Domain.join d1;
      Domain.join d2);
  let snap = SV.snapshot server in
  check ci "two executed" 2 snap.SV.completed;
  check ci "one waited" 1 snap.SV.queued;
  check ci "one rejected" 1 snap.SV.rejected;
  check ci "attempts all accounted for" 3 (snap.SV.accepted + snap.SV.rejected);
  check ci "queue-wait recorded per accepted request" 2 snap.SV.queue_wait.SV.count;
  SV.shutdown server;
  EN.shutdown engine

let test_server_fairness () =
  let engine, _, _ = serving_env 20 in
  let server = SV.create ~max_in_flight:2 ~per_session_cap:1 engine in
  let hot = SV.open_session ~name:"hot" server in
  let other = SV.open_session ~name:"other" server in
  with_blocker (fun park release ->
      let d1 = Domain.spawn (fun () -> SV.submit hot park) in
      wait_until "hot's request to start" (fun () -> (SV.snapshot server).SV.in_flight = 1);
      (* hot's second request: a global slot is free, but the session is
         at its cap, so it must wait *)
      let d2 = Domain.spawn (fun () -> SV.submit hot (fun _ -> ())) in
      wait_until "the cap-blocked waiter" (fun () ->
          (SV.snapshot server).SV.queue_depth = 1);
      check ci "global slot still free" 1 (SV.snapshot server).SV.in_flight;
      (* the other session overtakes the earlier cap-blocked waiter *)
      let d3 = Domain.spawn (fun () -> SV.submit other (fun _ -> ())) in
      wait_until "the other session to overtake" (fun () ->
          (SV.session_snapshot other).SV.completed = 1);
      check ci "hot's waiter is still queued" 1 (SV.snapshot server).SV.queue_depth;
      check ci "hot has completed nothing" 0 (SV.session_snapshot hot).SV.completed;
      release ();
      List.iter Domain.join [ d1; d2; d3 ]);
  check ci "everything drained" 3 (SV.snapshot server).SV.completed;
  SV.shutdown server;
  EN.shutdown engine

let test_engine_pool_race () =
  (* regression: a parallel transform racing another caller's [jobs]
     resize must not have the shared pool shut down underneath it *)
  let db, view = setup_example1 () in
  let engine = EN.create db in
  EN.register_view engine view;
  let expect =
    (EN.transform engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet).EN.output
  in
  let iters = 6 in
  let run_client i () =
    List.init iters (fun k ->
        (* alternate jobs 2 / 3: every step asks for a resize *)
        let jobs = 2 + ((i + k) mod 2) in
        (EN.transform
           ~options:{ EN.default_run_options with EN.jobs }
           engine ~view_name:"dept_emp" ~stylesheet:example1_stylesheet)
          .EN.output)
  in
  let outs =
    List.concat_map Domain.join
      (List.init test_jobs (fun i -> Domain.spawn (run_client i)))
  in
  check ci "every racing run finished" (test_jobs * iters) (List.length outs);
  List.iter (fun o -> check (Alcotest.list cs) "identical under pool races" expect o) outs;
  EN.shutdown engine

let test_server_mixed_smoke () =
  (* four domains hammer transform / publish / explain through sessions
     on one engine; afterwards the registry counters must be
     torn-state-free, exactly as in the single-registry hammering test *)
  let engine, view_name, cases = serving_env 30 in
  let reference =
    List.map
      (fun (n, ss) -> (n, (EN.transform engine ~view_name ~stylesheet:ss).EN.output))
      cases
  in
  let pub_ref = (EN.publish engine ~view_name).EN.output in
  let server = SV.create ~max_in_flight:4 ~max_queue:256 engine in
  let domains = 4 and iters = 5 in
  let run_client i () =
    let sess = SV.open_session ~name:(Printf.sprintf "w%d" i) server in
    let ok = ref 0 in
    for k = 1 to iters do
      List.iter
        (fun (name, ss) ->
          if (SV.transform sess ~view_name ~stylesheet:ss).EN.output
             = List.assoc name reference
          then incr ok)
        cases;
      if (SV.publish sess ~view_name).EN.output = pub_ref then incr ok;
      if contains "SQL/XML plan"
           (SV.explain sess ~view_name ~stylesheet:(snd (List.nth cases (k mod 3))))
      then incr ok
    done;
    SV.close_session sess;
    !ok
  in
  let oks =
    List.map Domain.join (List.init domains (fun i -> Domain.spawn (run_client i)))
  in
  check ci "every mixed call checked out"
    (domains * iters * (List.length cases + 2))
    (List.fold_left ( + ) 0 oks);
  (* the result cache serves every transform and publish after the
     warm-up without asking the registry: prepares = warmup transforms
     + per-iteration explains *)
  let counter n = List.assoc n (EN.registry_counters engine) in
  check ci "every later transform and publish a result-cache hit"
    (domains * iters * (List.length cases + 1))
    (List.assoc "result_cache_hits" (EN.result_cache_counters engine));
  let prepares = List.length cases + (domains * iters) in
  check ci "every prepare a hit or a recompilation" prepares
    (counter "cache_hits" + counter "recompilations");
  check ci "recompilations = misses + stale" (counter "recompilations")
    (counter "cache_misses" + counter "cache_stale");
  SV.shutdown server;
  EN.shutdown engine

(* property: under random admission bounds and client mixes, a batch of
   concurrent sessions never deadlocks, never loses a request, and every
   response stays byte-identical to the sequential reference *)
let prop_server_accounting =
  QCheck.Test.make ~name:"server accounting under random bounds" ~count:12
    QCheck.(
      quad (int_range 1 3) (int_range 0 4) (int_range 1 3) (int_range 1 4))
    (fun (max_in_flight, max_queue, per_session_cap, clients) ->
      let engine, view_name, cases = serving_env 12 in
      let reference =
        List.map
          (fun (n, ss) -> (n, (EN.transform engine ~view_name ~stylesheet:ss).EN.output))
          cases
      in
      let server =
        SV.create ~max_in_flight ~max_queue ~per_session_cap:(min per_session_cap max_in_flight)
          engine
      in
      let run_client i () =
        let sess = SV.open_session ~name:(Printf.sprintf "p%d" i) server in
        let ok = ref 0 and rejected = ref 0 in
        List.iter
          (fun (name, ss) ->
            match SV.transform sess ~view_name ~stylesheet:ss with
            | r -> if r.EN.output = List.assoc name reference then incr ok
            | exception XE.Error (XE.Overloaded _) -> incr rejected)
          cases;
        SV.close_session sess;
        (!ok, !rejected)
      in
      let per_client =
        if clients = 1 then [ run_client 0 () ]
        else List.map Domain.join (List.init clients (fun i -> Domain.spawn (run_client i)))
      in
      let ok = List.fold_left (fun a (o, _) -> a + o) 0 per_client in
      let rejected = List.fold_left (fun a (_, r) -> a + r) 0 per_client in
      let snap = SV.snapshot server in
      SV.shutdown server;
      EN.shutdown engine;
      ok + rejected = clients * List.length cases
      && snap.SV.completed = ok
      && snap.SV.rejected = rejected
      && snap.SV.failed = 0
      && snap.SV.in_flight = 0
      && snap.SV.queue_depth = 0)

(* the latency accumulator stays one size however many samples it
   takes, and its percentiles sit within the documented relative error
   of the exact nearest-rank values *)
let test_server_latency_histogram () =
  let l = SV.Latency.create () in
  let words () = Obj.reachable_words (Obj.repr l) in
  let empty = words () in
  let n = 1_000_000 in
  let rng = Random.State.make [| 42 |] in
  (* log-uniform over 1e-3 .. 1e4 ms, plus exact zeros (immediate admits) *)
  let samples =
    Array.init n (fun i ->
        if i mod 10 = 0 then 0.0 else 10.0 ** (Random.State.float rng 7.0 -. 3.0))
  in
  Array.iter (SV.Latency.add l) samples;
  check ci "accumulator size unchanged after 1M samples" empty (words ());
  let s = SV.Latency.summary l in
  Array.sort compare samples;
  let exact q = samples.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))) in
  check ci "count exact" n s.SV.count;
  check (Alcotest.float 0.0) "max exact" samples.(n - 1) s.SV.max_ms;
  check (Alcotest.float 1e-6) "mean exact"
    (Array.fold_left ( +. ) 0.0 samples /. float_of_int n)
    s.SV.mean_ms;
  List.iter
    (fun (q, got) ->
      let want = exact q in
      if Float.abs (got -. want) > SV.Latency.relative_error *. want then
        Alcotest.failf "p%g: histogram %g vs exact %g (allowed %.4f relative)" (q *. 100.0)
          got want SV.Latency.relative_error)
    [ (0.50, s.SV.p50_ms); (0.95, s.SV.p95_ms); (0.99, s.SV.p99_ms) ];
  (* all-zero waits report exactly zero *)
  let z = SV.Latency.create () in
  for _ = 1 to 1000 do
    SV.Latency.add z 0.0
  done;
  check (Alcotest.float 0.0) "zero waits stay zero" 0.0 (SV.Latency.summary z).SV.p99_ms

(* property: pipeline equivalence across random dept/emp instances *)
let prop_pipeline_equivalence =
  QCheck.Test.make ~name:"functional = rewrite on random instances" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 0 6))
    (fun (n_depts, emps_per) ->
      let dv = Xdb_xsltmark.Data.dept_emp_db n_depts (max 1 emps_per) in
      let c =
        PL.compile dv.Xdb_xsltmark.Data.db dv.Xdb_xsltmark.Data.view example1_stylesheet
      in
      PL.run_functional dv.Xdb_xsltmark.Data.db c = PL.run_rewrite dv.Xdb_xsltmark.Data.db c)

let () =
  Alcotest.run "core"
    [
      ( "trace",
        [
          Alcotest.test_case "execution graph" `Quick test_execution_graph;
          Alcotest.test_case "recursion detection" `Quick test_recursion_detected;
        ] );
      ( "translation",
        [
          Alcotest.test_case "inline mode" `Quick test_inline_mode_selected;
          Alcotest.test_case "builtin compaction (§3.6)" `Quick test_builtin_compaction;
          Alcotest.test_case "recursive schema (§7.2)" `Quick test_recursive_schema_forces_functions;
          Alcotest.test_case "dead templates (§3.7)" `Quick test_dead_template_removal;
          Alcotest.test_case "straightforward [9]" `Quick test_straightforward_translation;
          Alcotest.test_case "partial inline (§7.2 extension)" `Quick test_partial_inline_extension;
          Alcotest.test_case "key() expansion" `Quick test_key_translation;
          Alcotest.test_case "position()/last() translation" `Quick test_position_last_translation;
          Alcotest.test_case "strip-space through the pipeline" `Quick test_strip_space_pipeline;
          Alcotest.test_case "xsl:sort key types: VM = rewrite" `Quick test_sort_key_types;
          Alcotest.test_case "backward axis removal (§3.5)" `Quick test_backward_axis_removal;
          Alcotest.test_case "model groups (§3.4)" `Quick test_model_group_variants;
          Alcotest.test_case "cardinality LET/FOR (§3.4)" `Quick test_cardinality_let_vs_for;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "Example 1 end-to-end" `Quick test_example1_pipeline;
          Alcotest.test_case "Example 2 combined optimisation" `Quick test_example2_combined;
          Alcotest.test_case "explain" `Quick test_explain_sections;
          Alcotest.test_case "schema evolution registry (§7.3)" `Quick test_schema_evolution_registry;
          Alcotest.test_case "evolution vs catalog duplicates" `Quick
            test_evolution_vs_catalog_duplicates;
          Alcotest.test_case "registry cache counters" `Quick test_registry_counters;
          Alcotest.test_case "registry stats invalidation (ANALYZE)" `Quick
            test_registry_stats_invalidation;
          Alcotest.test_case "registry LRU eviction" `Quick test_registry_lru_eviction;
          Alcotest.test_case "shape cut" `Quick test_shape_cut;
          Alcotest.test_case "shape sharing counters" `Quick test_shape_sharing_counters;
          Alcotest.test_case "template plan replay" `Quick test_template_replay;
          Alcotest.test_case "unshareable shapes" `Quick test_unshareable_shapes;
          Alcotest.test_case "dbonerow EXPLAIN ANALYZE" `Quick test_dbonerow_explain_analyze;
          Alcotest.test_case "NaN condition differential" `Quick test_nan_condition_differential;
          Alcotest.test_case "EXPLAIN ANALYZE ordering strategy" `Quick
            test_ordering_strategy_explain;
          QCheck_alcotest.to_alcotest prop_pipeline_equivalence;
          Alcotest.test_case "string/number comparisons: functional = rewrite" `Quick
            test_mixed_comparison_differential;
          Alcotest.test_case "negative zero prints 0" `Quick test_negative_zero_differential;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "chunk_ranges" `Quick test_chunk_ranges;
          Alcotest.test_case "pool run" `Quick test_pool_run;
          Alcotest.test_case "pool exceptions & shutdown" `Quick test_pool_exception;
          Alcotest.test_case "split run, Sort on top" `Quick (test_split_parity fst);
          Alcotest.test_case "split run, base scanned twice" `Quick (test_split_parity snd);
          Alcotest.test_case "split drain race guard" `Quick test_split_concat_race;
          Alcotest.test_case "registry under contention" `Quick test_registry_concurrent;
          Alcotest.test_case "Engine facade" `Quick test_engine_facade;
          Alcotest.test_case "Engine shredded storage" `Quick test_engine_shredded;
          Alcotest.test_case "shredded runs over a pool" `Quick test_shredded_parallel;
          Alcotest.test_case "shredded XSLTMark parity" `Quick
            test_shredded_xsltmark_parity;
          Alcotest.test_case "Xdb_error boundary" `Quick test_xdb_error;
          Alcotest.test_case "result cache unit" `Quick test_result_cache_unit;
          Alcotest.test_case "result cache through engine" `Quick
            test_engine_result_cache;
          Alcotest.test_case "result cache patch install" `Quick test_result_cache_patch_install;
          Alcotest.test_case "a Figure 3 cycle keeps, patches and recomputes" `Quick
            test_fig3_cycle_keeps_and_patches;
          Alcotest.test_case "fig3-pages replay: every served page = a recompute" `Quick
            test_fig3_replay_patches_every_page;
          Alcotest.test_case "patches that change a member's length" `Quick test_patch_length_changes;
          Alcotest.test_case "patch sequences = recomputes" `Quick test_patch_sequences;
          Alcotest.test_case "prepared statements" `Quick test_prepared_statements;
          Alcotest.test_case "run source verb" `Quick test_run_source_verb;
          QCheck_alcotest.to_alcotest prop_parallel_equiv_sequential;
          Alcotest.test_case "shredded streaming edge cases" `Quick
            test_shredded_streaming_edges;
          Alcotest.test_case "shredded xsl:number" `Quick test_shredded_number;
          Alcotest.test_case "shredded compile cache" `Quick test_shredded_compile_cache;
          Alcotest.test_case "result cache before binding" `Quick
            test_result_cache_before_binding;
          Alcotest.test_case "a cached stmt hit allocates at most 16 words" `Quick
            test_stmt_hit_allocation;
          Alcotest.test_case "a stmt's held entry across evictions and re-stores" `Quick
            test_stmt_held_entry_events;
          Alcotest.test_case "concurrent readers and a writer: pages = recomputes" `Quick
            test_concurrent_readers_and_writer;
          Alcotest.test_case "result cache: a held entry's second chance" `Quick
            test_result_cache_second_chance;
          Alcotest.test_case "result cache: a slot keeps no evicted page alive" `Quick
            test_result_cache_slot_releases;
        ] );
      ( "server",
        [
          Alcotest.test_case "sessions over one engine" `Quick test_server_sessions;
          Alcotest.test_case "concurrent clients byte-identical" `Quick
            test_server_concurrent;
          Alcotest.test_case "overload rejects, never deadlocks" `Quick
            test_server_overload;
          Alcotest.test_case "per-session cap fairness" `Quick test_server_fairness;
          Alcotest.test_case "engine pool vs jobs-resize race" `Quick
            test_engine_pool_race;
          Alcotest.test_case "mixed-verb smoke under 4 domains" `Quick
            test_server_mixed_smoke;
          Alcotest.test_case "bounded latency histogram" `Quick
            test_server_latency_histogram;
          QCheck_alcotest.to_alcotest prop_server_accounting;
        ] );
    ]
