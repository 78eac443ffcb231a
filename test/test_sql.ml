(* Tests for the SQL/XML surface running the paper's statements through
   Engine.execute, plus DML: INSERT/UPDATE/DELETE with index maintenance,
   two-phase atomicity, data versioning and result-cache consistency. *)

module V = Xdb_rel.Value
module P = Xdb_rel.Publish
module T = Xdb_rel.Table
module A = Xdb_rel.Algebra
module SQL = Xdb_sql.Engine
module EN = Xdb_core.Engine

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

(* dept ⋈ emp as one document per department (paper Table 3) *)
let dept_emp_view =
  let leaf name col = P.Elem { name; attrs = []; content = [ P.Text_col col ] } in
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

(* the paper's dept/emp schema, tables 1-3 *)
let make_engine () =
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
  let eng = EN.create db in
  EN.register_view eng dept_emp_view;
  eng

let exec eng sql = EN.execute eng sql

let sql_fails eng q =
  match exec eng q with
  | exception Xdb_core.Xdb_error.Error (Xdb_core.Xdb_error.Sql _) -> true
  | _ -> false

(* paper Table 5, quoted for SQL ('' escapes) *)
let table5_sql =
  {|SELECT
XMLTransform(dept_emp.dept_content,
'<?xml version="1.0"?><xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept">
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
</xsl:template>
</xsl:stylesheet>')
FROM dept_emp|}

(* ------------------------------------------------------------------ *)
(* parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser () =
  (match Xdb_sql.Parser.parse "SELECT a, t.b AS x FROM t WHERE a > 3;" with
  | Xdb_sql.Ast.Select { items = [ _; _ ]; from_name = "t"; where = Some _; _ } -> ()
  | _ -> Alcotest.fail "basic select shape");
  (match Xdb_sql.Parser.parse "select * from emp" with
  | Xdb_sql.Ast.Select { items = [ (Xdb_sql.Ast.Star, None) ]; _ } -> ()
  | _ -> Alcotest.fail "star select");
  (* string escaping: '' inside strings *)
  (match Xdb_sql.Parser.parse "SELECT 'it''s' FROM t" with
  | Xdb_sql.Ast.Select { items = [ (Xdb_sql.Ast.Str_lit "it's", None) ]; _ } -> ()
  | _ -> Alcotest.fail "quote escaping");
  let fails s =
    match Xdb_sql.Parser.parse s with
    | exception Xdb_sql.Parser.Parse_error _ -> true
    | _ -> false
  in
  check cb "missing FROM" true (fails "SELECT 1");
  check cb "trailing garbage" true (fails "SELECT a FROM t extra tokens here")

let test_parser_dml () =
  (match Xdb_sql.Parser.parse "INSERT INTO t VALUES (1, 'x'), (2, NULL);" with
  | Xdb_sql.Ast.Insert { table = "t"; columns = None; values = [ [ _; _ ]; [ _; _ ] ] } -> ()
  | _ -> Alcotest.fail "multi-row insert shape");
  (match Xdb_sql.Parser.parse "INSERT INTO t (a, b) VALUES (-3, 'y')" with
  | Xdb_sql.Ast.Insert
      { columns = Some [ "a"; "b" ]; values = [ [ Xdb_sql.Ast.Int_lit (-3); _ ] ]; _ } ->
      ()
  | _ -> Alcotest.fail "column-list insert with negative literal");
  (match Xdb_sql.Parser.parse "UPDATE t SET a = a + 1, b = 'z' WHERE a > 0" with
  | Xdb_sql.Ast.Update { table = "t"; sets = [ ("a", _); ("b", _) ]; where = Some _ } -> ()
  | _ -> Alcotest.fail "update shape");
  (match Xdb_sql.Parser.parse "DELETE FROM t" with
  | Xdb_sql.Ast.Delete { table = "t"; where = None } -> ()
  | _ -> Alcotest.fail "delete shape");
  match Xdb_sql.Parser.parse "INSERT INTO t VALUES" with
  | exception Xdb_sql.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "VALUES without tuples must fail"

let test_tokenizer_comments () =
  match Xdb_sql.Parser.parse "SELECT a -- comment\nFROM t" with
  | Xdb_sql.Ast.Select { from_name = "t"; _ } -> ()
  | _ -> Alcotest.fail "line comment"

(* ------------------------------------------------------------------ *)
(* execution                                                           *)
(* ------------------------------------------------------------------ *)

let test_table_select () =
  let s = make_engine () in
  let r = exec s "SELECT ename, sal FROM emp WHERE sal > 2000" in
  check Alcotest.(list string) "columns" [ "ename"; "sal" ] r.SQL.columns;
  check ci "two rows" 2 (List.length r.SQL.rows);
  (* index got used *)
  check cb "index scan in note" true (contains "INDEX SCAN" (Option.get r.SQL.note))

let test_star_select () =
  let s = make_engine () in
  let r = exec s "SELECT * FROM dept" in
  check Alcotest.(list string) "all columns" [ "deptno"; "dname"; "loc" ] r.SQL.columns;
  check ci "two rows" 2 (List.length r.SQL.rows)

let test_xmltransform_table5 () =
  let s = make_engine () in
  let r = exec s table5_sql in
  check ci "one row per dept" 2 (List.length r.SQL.rows);
  check cb "rewrite engaged" true (contains "XSLT rewrite" (Option.get r.SQL.note));
  let first = V.to_string (List.hd (List.hd r.SQL.rows)) in
  (* paper Table 6 *)
  check cs "Table 6 output"
    "<H1>HIGHLY PAID DEPT EMPLOYEES</H1><H2>Department name: ACCOUNTING</H2><H2>Department location: NEW YORK</H2><H2>Employees Table</H2><table border=\"2\"><td><b>EmpNo</b></td><td><b>Name</b></td><td><b>Weekly Salary</b></td><tr><td>7782</td><td>CLARK</td><td>2450</td></tr></table>"
    first

let test_xmlquery_over_view () =
  let s = make_engine () in
  let r =
    exec s
      {|SELECT XMLQuery('for $e in ./dept/employees/emp[sal > 4000] return <top>{fn:string($e/ename)}</top>'
PASSING dept_emp.dept_content RETURNING CONTENT) FROM dept_emp|}
  in
  check cb "xquery rewrite engaged" true (contains "XQuery rewrite" (Option.get r.SQL.note));
  let outs = List.map (fun row -> V.to_string (List.hd row)) r.SQL.rows in
  check Alcotest.(list string) "per-dept results" [ ""; "<top>SMITH</top>" ] outs

(* XPath number() of a string that is no number is NaN on the rewrite
   too; a numeric column keeps its value *)
let test_xmlquery_number () =
  let module D = Xdb_xsltmark.Data in
  let dv = D.records_db 3 in
  let e = EN.create dv.D.db in
  EN.register_view e dv.D.view;
  let query path =
    exec e
      (Printf.sprintf
         {|SELECT XMLQuery('for $r in /table/row return <n>{fn:number($r/%s)}</n>' PASSING v.doc RETURNING CONTENT) FROM records_vu v|}
         path)
  in
  let r = query "name" in
  check cb "xquery rewrite engaged" true (contains "XQuery rewrite" (Option.get r.SQL.note));
  check Alcotest.(list string) "number() of a name is NaN" [ "<n>NaN</n><n>NaN</n><n>NaN</n>" ]
    (List.map (fun row -> V.to_string (List.hd row)) r.SQL.rows);
  let values =
    List.map (fun row -> V.to_string (List.hd row)) (exec e "SELECT value FROM rows").SQL.rows
  in
  check Alcotest.(list string) "number() of a value is the value"
    [ String.concat "" (List.map (Printf.sprintf "<n>%s</n>") values) ]
    (List.map (fun row -> V.to_string (List.hd row)) (query "value").SQL.rows)

(* a NULL scalar column still publishes its element, empty: count()
   and an existence test see it, and sum() of it is NaN, as XPath over
   the published <name/> gives; sum() of a string is NaN too *)
let test_xmlquery_null_column () =
  let module D = Xdb_xsltmark.Data in
  let dv = D.records_db 2 in
  let e = EN.create dv.D.db in
  EN.register_view e dv.D.view;
  ignore (exec e "UPDATE rows SET name = NULL WHERE id = 1");
  let query q =
    let r =
      exec e
        (Printf.sprintf
           {|SELECT XMLQuery('%s' PASSING v.doc RETURNING CONTENT) FROM records_vu v|} q)
    in
    check cb "xquery rewrite engaged" true (contains "XQuery rewrite" (Option.get r.SQL.note));
    List.map (fun row -> V.to_string (List.hd row)) r.SQL.rows
  in
  check Alcotest.(list string) "count, sum and existence of <name/>"
    [ "<n>1|NaN|1</n><n>1|NaN|1</n>" ]
    (query
       {|for $r in /table/row return <n>{fn:count($r/name)}|{fn:sum($r/name)}|{if ($r/name) then 1 else 0}</n>|});
  check Alcotest.(list string) "a predicate's existence test" [ "<m>1</m><m>2</m>" ]
    (query {|for $r in /table/row[name] return <m>{fn:string($r/id)}</m>|})

let test_example2_combined () =
  let s = make_engine () in
  (* paper Table 9: wrap the transformation as an XSLT view *)
  let with_alias =
    (* paper Table 9 aliases the item: ... AS xslt_rslt FROM dept_emp *)
    let suffix = "\nFROM dept_emp" in
    let prefix = String.sub table5_sql 0 (String.length table5_sql - String.length suffix) in
    prefix ^ " AS xslt_rslt" ^ suffix
  in
  let create = exec s ("CREATE VIEW xslt_vu AS " ^ with_alias) in
  ignore create;
  (* paper Table 10: query the view result *)
  let r =
    exec s
      {|SELECT XMLQuery('for $tr in ./table/tr return $tr'
PASSING xslt_vu.xslt_rslt RETURNING CONTENT) FROM xslt_vu|}
  in
  check cb "combined optimisation engaged" true
    (contains "combined" (Option.get r.SQL.note));
  let outs = List.map (fun row -> V.to_string (List.hd row)) r.SQL.rows in
  (* paper Table 11's result rows *)
  check Alcotest.(list string) "Table 11 results"
    [
      "<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>";
      "<tr><td>7954</td><td>SMITH</td><td>4900</td></tr>";
    ]
    outs

let test_mixed_items () =
  let s = make_engine () in
  let r =
    exec s
      {|SELECT dname, XMLQuery('fn:string(count(./dept/employees/emp))'
PASSING dept_emp.dept_content RETURNING CONTENT) AS n FROM dept_emp|}
  in
  check Alcotest.(list string) "columns" [ "dname"; "n" ] r.SQL.columns;
  let rows = List.map (List.map V.to_string) r.SQL.rows in
  check Alcotest.(list (list string)) "values"
    [ [ "ACCOUNTING"; "2" ]; [ "OPERATIONS"; "1" ] ]
    rows

let test_errors () =
  let s = make_engine () in
  check cb "unknown relation" true (sql_fails s "SELECT a FROM nope");
  check cb "xml fn over base table" true
    (sql_fails s "SELECT XMLTransform(x, 'y') FROM emp");
  check cb "create view over table" true
    (sql_fails s "CREATE VIEW v AS SELECT ename FROM emp")

let test_analyze_statement () =
  let s = make_engine () in
  let r = exec s "ANALYZE" in
  check Alcotest.(list string) "columns" [ "table_name"; "rows_sampled" ] r.SQL.columns;
  check ci "both tables analyzed" 2 (List.length r.SQL.rows);
  check cb "note reports the stats version" true (contains "stats version" (Option.get r.SQL.note));
  (* single-table form *)
  let r2 = exec s "ANALYZE emp;" in
  (match r2.SQL.rows with
  | [ [ V.Str "emp"; V.Int 3 ] ] -> ()
  | _ -> Alcotest.fail "ANALYZE emp must report 3 sampled rows");
  (* queries keep returning the same rows once stats are collected *)
  let r3 = exec s "SELECT ename, sal FROM emp WHERE sal > 2000" in
  check ci "two rows after ANALYZE" 2 (List.length r3.SQL.rows);
  check cb "index still used" true (contains "INDEX SCAN" (Option.get r3.SQL.note));
  check cb "ANALYZE of an unknown table must raise" true (sql_fails s "ANALYZE ghost")

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

let affected r =
  match r.SQL.rows with
  | [ [ V.Int n ] ] -> n
  | _ -> Alcotest.fail "DML result must be one rows_affected row"

let count_rows s table =
  List.length (exec s (Printf.sprintf "SELECT * FROM %s" table)).SQL.rows

let data_version s table = Xdb_rel.Database.data_version (EN.database s) table

let test_insert () =
  let s = make_engine () in
  let v0 = data_version s "emp" in
  let r =
    exec s
      "INSERT INTO emp VALUES (8001, 'ADAMS', 3100, 40), (8002, 'BAKER', 900, 10)"
  in
  check ci "two rows inserted" 2 (affected r);
  check ci "version bumped once per statement" (v0 + 1) (data_version s "emp");
  check ci "five emp rows" 5 (count_rows s "emp");
  (* the new high-salary row is found through the sal B-tree index *)
  let r2 = exec s "SELECT ename FROM emp WHERE sal > 3000" in
  check cb "index scan" true (contains "INDEX SCAN" (Option.get r2.SQL.note));
  check ci "ADAMS joins SMITH" 2 (List.length r2.SQL.rows);
  (* column-list form with defaults filled as NULL *)
  let r3 = exec s "INSERT INTO emp (empno, ename, sal, deptno) VALUES (8003, 'COLE', 1, 10)" in
  check ci "one row" 1 (affected r3);
  check cb "note reports the data version" true (contains "data version" (Option.get r3.SQL.note))

let test_update_with_index () =
  let s = make_engine () in
  let r = exec s "UPDATE emp SET sal = sal + 1000 WHERE deptno = 10" in
  check ci "two rows updated" 2 (affected r);
  (* the index must see the new keys: MILLER moved from 1300 to 2300 *)
  let r2 = exec s "SELECT ename, sal FROM emp WHERE sal > 2000" in
  check cb "index scan" true (contains "INDEX SCAN" (Option.get r2.SQL.note));
  check ci "all three qualify now" 3 (List.length r2.SQL.rows);
  (* ... and no stale key remains under the old value *)
  let r3 = exec s "SELECT ename FROM emp WHERE sal = 1300" in
  check ci "old key gone" 0 (List.length r3.SQL.rows)

let test_delete_with_index () =
  let s = make_engine () in
  let v0 = data_version s "emp" in
  let r = exec s "DELETE FROM emp WHERE sal > 2000" in
  check ci "two rows deleted" 2 (affected r);
  check ci "version bumped" (v0 + 1) (data_version s "emp");
  check ci "one row left" 1 (count_rows s "emp");
  (* the index was rebuilt over the compacted heap *)
  let r2 = exec s "SELECT ename FROM emp WHERE sal > 1000" in
  check cb "index scan" true (contains "INDEX SCAN" (Option.get r2.SQL.note));
  (match List.map (List.map V.to_string) r2.SQL.rows with
  | [ [ "MILLER" ] ] -> ()
  | _ -> Alcotest.fail "only MILLER survives");
  (* empty-match delete: no version movement *)
  let v1 = data_version s "emp" in
  check ci "no-op delete" 0 (affected (exec s "DELETE FROM emp WHERE sal > 99999"));
  check ci "version unchanged on no-op" v1 (data_version s "emp")

let test_dml_atomicity () =
  let s = make_engine () in
  let v0 = data_version s "emp" in
  let before = (exec s "SELECT * FROM emp").SQL.rows in
  (* third row's type is wrong: nothing may be inserted *)
  check cb "typed insert fails" true
    (sql_fails s "INSERT INTO emp VALUES (1, 'A', 1, 10), (2, 'B', 2, 10), (3, 'C', 'x', 10)");
  (* update hits a type mismatch mid-set: nothing may change *)
  check cb "typed update fails" true (sql_fails s "UPDATE emp SET sal = 'nope'");
  check cb "unknown column" true (sql_fails s "UPDATE emp SET ghost = 1");
  check cb "arity mismatch" true (sql_fails s "INSERT INTO emp VALUES (1, 'A')");
  check cb "non-constant insert value" true
    (sql_fails s "INSERT INTO emp VALUES (1, ename, 1, 10)");
  check Alcotest.(list (list string)) "rows untouched"
    (List.map (List.map V.to_string) before)
    (List.map (List.map V.to_string) (exec s "SELECT * FROM emp").SQL.rows);
  check ci "data version untouched" v0 (data_version s "emp")

let test_dml_marks_stats_stale () =
  let s = make_engine () in
  let db = EN.database s in
  ignore (exec s "ANALYZE emp");
  check cb "fresh after ANALYZE" false (Xdb_rel.Database.stats_stale db "emp");
  let sv = Xdb_rel.Database.stats_version db in
  ignore (exec s "INSERT INTO emp VALUES (9101, 'NEW', 50, 10)");
  check cb "stale after DML" true (Xdb_rel.Database.stats_stale db "emp");
  check ci "stats version does NOT move on DML" sv (Xdb_rel.Database.stats_version db);
  ignore (exec s "ANALYZE emp");
  check cb "fresh again" false (Xdb_rel.Database.stats_stale db "emp")

(* every DML write must be visible to the very next transform, cached or
   not — and cached output must stay byte-identical to a recompute *)
let test_dml_transform_visibility () =
  let s = make_engine () in
  (* compare rendered bytes: XMLType rows carry node forests whose parent
     links make structural compare unusable *)
  let transform () =
    List.map (List.map V.to_string) (EN.execute s table5_sql).SQL.rows
  in
  let before = transform () in
  ignore (exec s "UPDATE emp SET sal = 2451 WHERE ename = 'CLARK'");
  let after = transform () in
  check cb "update visible through XMLTransform" true (before <> after);
  check cb "new salary rendered" true (contains "2451" (List.hd (List.hd after)))

let rows_as_strings s sql = List.map (List.map V.to_string) (exec s sql).SQL.rows

(* the paper schema with a B-tree on emp.deptno as well *)
let make_keyed_engine () =
  let s = make_engine () in
  let emp = Xdb_rel.Database.table (EN.database s) "emp" in
  ignore (T.create_index emp ~name:"emp_deptno_idx" ~column:"deptno");
  s

let test_keyed_dml_probes () =
  let s = make_keyed_engine () in
  let r = exec s "UPDATE emp SET sal = sal WHERE deptno = 10" in
  let note = Option.get r.SQL.note in
  check cb "update note keeps its prefix" true (contains "2 row(s) updated, emp data version" note);
  check cb "update selection probes the index" true (contains "INDEX SCAN" note);
  let r = exec s "DELETE FROM emp WHERE deptno = 40" in
  let note = Option.get r.SQL.note in
  check ci "one row deleted" 1 (affected r);
  check cb "delete note keeps its prefix" true (contains "1 row(s) deleted, emp data version" note);
  check cb "delete selection probes the index" true (contains "INDEX SCAN" note)

(* the selection runs over the sal index while the statement moves sal
   up the same index: each qualifying row changes exactly once *)
let test_update_halloween () =
  let s = make_engine () in
  let r = exec s "UPDATE emp SET sal = sal + 1000 WHERE sal > 1000" in
  check cb "range scan over the updated column" true
    (contains "INDEX SCAN" (Option.get r.SQL.note));
  check ci "three rows updated" 3 (affected r);
  check
    Alcotest.(list (list string))
    "each row moved once"
    [ [ "CLARK"; "3450" ]; [ "MILLER"; "2300" ]; [ "SMITH"; "5900" ] ]
    (rows_as_strings s "SELECT ename, sal FROM emp")

let test_unknown_where_column () =
  let s = make_keyed_engine () in
  check cb "unknown column fails although the probe finds no row" true
    (sql_fails s "UPDATE emp SET sal = 1 WHERE deptno = 99 AND ghost = 1");
  check cb "... in DELETE too" true (sql_fails s "DELETE FROM emp WHERE deptno = 99 AND ghost = 1");
  ignore (exec s "DELETE FROM emp");
  check cb "... and over an empty table" true (sql_fails s "UPDATE emp SET sal = 1 WHERE ghost = 1")

let test_failed_set_is_atomic () =
  let s = make_engine () in
  let v0 = data_version s "emp" in
  let before = rows_as_strings s "SELECT * FROM emp" in
  check cb "division by zero fails as a SQL error" true (sql_fails s "UPDATE emp SET sal = sal / 0");
  check Alcotest.(list (list string)) "rows untouched" before (rows_as_strings s "SELECT * FROM emp");
  check ci "data version untouched" v0 (data_version s "emp")

(* random DML interleaving: Engine.transform with the cache on must equal
   a forced recompute after every statement *)
let prop_dml_cache_consistency =
  let stmt_gen =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun empno sal ->
                Printf.sprintf "INSERT INTO emp VALUES (%d, 'E%d', %d, %d)" empno empno sal
                  (if empno mod 2 = 0 then 10 else 40))
              (int_range 8000 8999) (int_range 100 5000) );
          ( 3,
            map2
              (fun sal cut -> Printf.sprintf "UPDATE emp SET sal = %d WHERE sal > %d" sal cut)
              (int_range 100 5000) (int_range 0 5000) );
          (2, map (fun cut -> Printf.sprintf "DELETE FROM emp WHERE sal < %d" cut) (int_range 0 3000));
          (1, return "ANALYZE emp");
        ])
  in
  let ss =
    {|<?xml version="1.0"?><xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept"><d><xsl:apply-templates/></d></xsl:template>
<xsl:template match="dname"><n><xsl:value-of select="."/></n></xsl:template>
<xsl:template match="loc"/>
<xsl:template match="employees"><xsl:apply-templates select="emp[sal &gt; 1000]"/></xsl:template>
<xsl:template match="emp"><e><xsl:value-of select="ename"/>:<xsl:value-of select="sal"/></e></xsl:template>
<xsl:template match="text()"/>
</xsl:stylesheet>|}
  in
  QCheck.Test.make ~name:"DML interleaving keeps cached = recomputed" ~count:25
    QCheck.(list_of_size Gen.(int_range 1 8) (make stmt_gen))
    (fun stmts ->
      let s = make_engine () in
      let cached () =
        (EN.transform s ~view_name:"dept_emp" ~stylesheet:ss).EN.output
      in
      let recomputed () =
        (EN.transform
           ~options:{ EN.default_run_options with EN.result_cache = false }
           s ~view_name:"dept_emp" ~stylesheet:ss)
          .EN.output
      in
      (* the functional VM over the re-published view: an oracle that
         shares no code with the rewrite plan's XMLAgg ORDER BY (random
         INSERTs land out of empno order, so the plan's sort fallback runs
         as well as its presorted path) *)
      let functional () =
        let db = EN.database s in
        Xdb_core.Pipeline.run_functional db (Xdb_core.Pipeline.compile db dept_emp_view ss)
      in
      ignore (cached ());
      List.for_all
        (fun stmt ->
          ignore (EN.execute s stmt);
          let r = recomputed () in
          cached () = r && cached () = r && functional () = r)
        stmts)

(* CI runs the suite again with XDB_TEST_JOBS=4: served pages then
   alternate between one domain and that many *)
let test_jobs =
  match Option.bind (Sys.getenv_opt "XDB_TEST_JOBS") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1

let stylesheet_of name = (Option.get (Xdb_xsltmark.Cases.find name)).Xdb_xsltmark.Cases.stylesheet

let xsl body =
  {|<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">|} ^ body
  ^ "</xsl:stylesheet>"

(* members that are all empty unless a value is above 9990: the wrapper
   self-closes, and a write can fill or empty it *)
let sparse_members =
  xsl
    {|<xsl:template match="table"><big><xsl:for-each select="row"><xsl:if test="value &gt; 9990"><b id="{id}"><xsl:value-of select="value"/></b></xsl:if></xsl:for-each></big></xsl:template>|}

(* each member counts rows of its own driving table: a value write
   changes every member, so it must recompute, never patch *)
let self_counting =
  xsl
    {|<xsl:template match="table"><s><xsl:for-each select="row"><r id="{id}"><xsl:value-of select="count(/table/row[value &gt; 5000])"/></r></xsl:for-each></s></xsl:template>|}

(* every bar sums all the document's item amounts: an inner read keyed
   on another [region] scan, not on the driving row, so an amount write
   must never patch *)
let all_items_bars =
  xsl
    {|<xsl:template match="sales"><c><xsl:for-each select="region"><bar><xsl:value-of select="sum(/sales/region/item/amount)"/></bar></xsl:for-each></c></xsl:template>|}

(* bars sum only the items above 250: the written amount is read by the
   member's inner filter, and an amount write patches the bars it reaches *)
let big_items_bars =
  xsl
    {|<xsl:template match="sales"><c><xsl:for-each select="region"><bar n="{name}"><xsl:value-of select="sum(item[amount &gt; 250]/amount)"/></bar></xsl:for-each></c></xsl:template>|}

(* random writes against the Figure 3 pages (avts, metric, chart, total)
   and adversarial ones: dbaccess filters on the written value column,
   alphabetize orders by name, and the four above.  Writes hit member-only,
   filter, order and correlation columns (of the driving table and of the
   correlated [item] table), columns no page reads, insert and delete
   rows, update many rows at once, and overflow the change log with a
   burst of point UPDATEs.  After every statement each page as served
   (kept, patched or recomputed) equals a forced recompute and the
   functional VM.  Per statement: a write moving [item.rid] (the
   correlation column) never keeps or patches a sales page, a write of
   [item.product] (read by none) keeps them all, the all-items page never
   patches, and an [item.amount] write patches chart, total and the
   big-items page whenever their entry was recorded (recomputed after a
   drop on one domain, or patched since). *)
let prop_point_writes_keep_or_patch =
  let records_pages =
    [ ("avts", stylesheet_of "avts"); ("metric", stylesheet_of "metric");
      ("dbaccess", stylesheet_of "dbaccess"); ("alphabetize", stylesheet_of "alphabetize");
      ("sparse", sparse_members); ("self-counting", self_counting) ]
  and sales_pages =
    [ ("chart", stylesheet_of "chart"); ("total", stylesheet_of "total");
      ("all-items", all_items_bars); ("big-items", big_items_bars) ]
  in
  let keyed = [ "chart"; "total"; "big-items" ] in
  let records_stmt =
    QCheck.Gen.(
      let id = int_range 1 40 and v = int_range 0 10_000 in
      frequency
        [
          (5, map2 (Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d") v id);
          (2, map2 (Printf.sprintf "UPDATE rows SET value = 9995 + %d WHERE id = %d") (int_bound 4) id);
          (2, map2 (Printf.sprintf "UPDATE rows SET name = 'n%d' WHERE id = %d") v id);
          (1, map2 (Printf.sprintf "UPDATE rows SET category = 'C%d' WHERE id = %d") (int_bound 3) id);
          (1, map2 (Printf.sprintf "UPDATE rows SET id = %d WHERE id = %d") (int_range 41 60) id);
          (1, map2 (Printf.sprintf "UPDATE rows SET tid = %d WHERE id = %d") (int_range 1 2) id);
          (1, map (Printf.sprintf "UPDATE rows SET value = value + 7 WHERE id < %d") id);
          (1, map2 (Printf.sprintf "INSERT INTO rows VALUES (1, %d, 'new', %d, 'A')") (int_range 61 80) v);
          (1, map (Printf.sprintf "DELETE FROM rows WHERE id = %d") id);
          (1, return "burst");
        ])
  and sales_stmt =
    QCheck.Gen.(
      let rid = int_range 0 5 in
      frequency
        [
          (3, map2 (Printf.sprintf "UPDATE item SET amount = %d WHERE rid = %d") (int_range 1 500) rid);
          (1, map2 (Printf.sprintf "UPDATE item SET rid = %d WHERE rid = %d") rid rid);
          (2, map2 (Printf.sprintf "UPDATE item SET product = 'q%d' WHERE rid = %d") (int_bound 99) rid);
          (3, map2 (Printf.sprintf "UPDATE region SET rname = 'R%d' WHERE rid = %d") (int_bound 99) rid);
          (1, map2 (Printf.sprintf "UPDATE region SET sid = %d WHERE rid = %d") (int_range 1 2) rid);
          (1, map2 (Printf.sprintf "UPDATE region SET rid = %d WHERE rid = %d") (int_range 6 9) rid);
          (1, map (Printf.sprintf "DELETE FROM item WHERE rid = %d") rid);
        ])
  in
  let stmt_gen =
    QCheck.Gen.(
      oneof [ map (fun s -> (`Records, s)) records_stmt; map (fun s -> (`Sales, s)) sales_stmt ])
  in
  QCheck.Test.make ~name:"point writes keep or patch cached pages = recomputed = functional VM"
    ~count:20
    QCheck.(list_of_size Gen.(int_range 1 10) (make ~print:(fun (_, s) -> s) stmt_gen))
    (fun stmts ->
      let module D = Xdb_xsltmark.Data in
      let open_engine (dv : D.dbview) =
        let e = EN.create dv.D.db in
        EN.register_view e dv.D.view;
        ignore (EN.execute e "ANALYZE");
        e
      in
      let rdv = D.records_db ~docs:2 40 and sdv = D.sales_db ~docs:2 6 3 in
      let er = open_engine rdv and es = open_engine sdv in
      (* the functional baseline: materialise the view, run the XSLTVM *)
      let functional view_name stylesheet =
        let dv = if view_name = "sales_vu" then sdv else rdv in
        Xdb_core.Pipeline.run_functional dv.D.db
          (Xdb_core.Pipeline.compile dv.D.db dv.D.view stylesheet)
      in
      let pages =
        List.map (fun (n, ss) -> (n, er, "records_vu", ss)) records_pages
        @ List.map (fun (n, ss) -> (n, es, "sales_vu", ss)) sales_pages
      in
      let recorded = Hashtbl.create 8 in
      let counter e name = List.assoc name (EN.result_cache_counters e) in
      (* [item] moved: the statement changed rows of the correlated table *)
      let read ~jobs ~after_burst ~stmt ~item_moved =
        let item_write col = item_moved && String.starts_with ~prefix:("UPDATE item SET " ^ col) stmt in
        List.for_all
          (fun (name, e, view_name, stylesheet) ->
            let run options = EN.transform ~options e ~view_name ~stylesheet in
            let kept0 = counter e "result_cache_kept"
            and dropped0 = counter e "result_cache_invalidations" in
            let served =
              run { EN.default_run_options with EN.jobs; collect_metrics = true }
            in
            let kept = counter e "result_cache_kept" > kept0
            and dropped = counter e "result_cache_invalidations" > dropped0 in
            let counters = Xdb_core.Metrics.counters (Option.get served.EN.metrics) in
            let patched = List.assoc "result_cache_patched" counters = 1
            and hit = List.assoc "result_cache_hit" counters = 1 in
            let was_recorded = Hashtbl.mem recorded name in
            if patched || ((not hit) && dropped && jobs = 1) then Hashtbl.replace recorded name ()
            else if not hit then Hashtbl.remove recorded name;
            let recomputed = run { EN.default_run_options with EN.result_cache = false } in
            let functional = functional view_name stylesheet in
            let sales = view_name = "sales_vu" in
            (served.EN.output = recomputed.EN.output
            || QCheck.Test.fail_reportf "%s: served page differs from a recompute" name)
            && (functional = recomputed.EN.output
               || QCheck.Test.fail_reportf "%s: recompute differs from the functional VM" name)
            && ((not patched)
                || (name <> "self-counting" && name <> "all-items" && not after_burst)
               || QCheck.Test.fail_reportf "%s: patched%s" name
                    (if after_burst then " across an overflowed change log" else ""))
            && ((not (sales && item_write "rid")) || ((not patched) && not kept)
               || QCheck.Test.fail_reportf "%s: kept or patched across a write of item.rid" name)
            && ((not (sales && item_write "product")) || (hit && not patched)
               || QCheck.Test.fail_reportf "%s: not kept across a write of item.product" name)
            && ((not (List.mem name keyed && item_write "amount" && was_recorded)) || patched
               || QCheck.Test.fail_reportf "%s: a recorded page not patched after %s" name stmt))
          pages
      in
      ignore (read ~jobs:1 ~after_burst:false ~stmt:"" ~item_moved:false);
      let item_version () = Xdb_rel.Database.data_version (EN.database es) "item" in
      let ok =
        List.for_all
          (fun (i, (db, stmt)) ->
            let e = match db with `Records -> er | `Sales -> es in
            let v0 = item_version () in
            if stmt = "burst" then
              for k = 1 to 20 do
                ignore
                  (EN.execute e (Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" (k * 97) k))
              done
            else ignore (EN.execute e stmt);
            read
              ~jobs:(if i mod 2 = 0 then 1 else test_jobs)
              ~after_burst:(stmt = "burst") ~stmt ~item_moved:(item_version () <> v0))
          (List.mapi (fun i s -> (i, s)) stmts)
      in
      EN.shutdown er;
      EN.shutdown es;
      ok)

(* random WHERE predicates (empty names, NULLs, comparisons against NULL
   and against numeric strings, AND/OR): SELECT returns what a plain
   filtered scan keeps (so an index probe never admits a NULL key and
   compares a string bound as a number), DELETE removes exactly those
   rows and UPDATE counts them — DML and SELECT share one truthiness *)
let prop_dml_where_matches_select =
  let pred_gen =
    QCheck.Gen.(
      let int_col = oneofl [ "sal"; "deptno"; "empno" ] in
      let op = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
      let atom =
        oneof
          [
            oneofl [ "ename"; "sal"; "deptno"; "sal - 1300" ];
            map2 (Printf.sprintf "ename %s %s") op (oneofl [ "''"; "'CLARK'"; "'M'"; "NULL" ]);
            map3 (Printf.sprintf "%s %s %s") int_col op
              (oneofl [ "0"; "10"; "1300"; "3000"; "NULL"; "'1300'"; "' 10 '" ]);
            map2 (fun o c -> Printf.sprintf "sal %s %s" o c) op (oneofl [ "deptno"; "empno" ]);
          ]
      in
      sized_size (int_bound 3)
      @@ fix (fun self n ->
             if n = 0 then atom
             else
               frequency
                 [
                   (1, atom);
                   (2, map3 (Printf.sprintf "(%s) %s (%s)") (self (n - 1)) (oneofl [ "AND"; "OR" ])
                         (self (n - 1)));
                 ]))
  in
  QCheck.Test.make ~name:"DML WHERE picks the rows SELECT returns" ~count:200
    (QCheck.make ~print:Fun.id pred_gen)
    (fun p ->
      let s = make_engine () in
      ignore
        (exec s
           "INSERT INTO emp VALUES (8001, '', 0, 10), (8002, NULL, NULL, NULL), (8003, 'M', 1300, NULL)");
      let all = rows_as_strings s "SELECT * FROM emp" in
      let picked = rows_as_strings s ("SELECT * FROM emp WHERE " ^ p) in
      let scanned =
        match Xdb_sql.Parser.parse ("SELECT * FROM emp WHERE " ^ p) with
        | Xdb_sql.Ast.Select { where = Some w; _ } ->
            Xdb_rel.Exec.run (EN.database s)
              (A.Filter (SQL.plain_expr w, A.Seq_scan { table = "emp"; alias = "emp" }))
        | _ -> assert false
      in
      let updated = affected (exec s ("UPDATE emp SET sal = sal WHERE " ^ p)) in
      ignore (exec s ("DELETE FROM emp WHERE " ^ p));
      let left = rows_as_strings s "SELECT * FROM emp" in
      (List.length scanned = List.length picked
      || QCheck.Test.fail_reportf "the filtered scan kept %d row(s), SELECT returned %d"
           (List.length scanned) (List.length picked))
      && (updated = List.length picked
         || QCheck.Test.fail_reportf "UPDATE counted %d row(s), SELECT returned %d" updated
              (List.length picked))
      && (left = List.filter (fun r -> not (List.mem r picked)) all
         || QCheck.Test.fail_reportf "DELETE left %d row(s), SELECT returned %d of %d"
              (List.length left) (List.length picked) (List.length all)))

(* random literal bounds of either type class against an indexed INT and
   an indexed VARCHAR column (numeric and non-numeric strings, NULLs):
   the optimised plan probes the index, and it keeps exactly the rows a
   plain filtered scan keeps — or fails with the same error, as
   [Value.compare_sql] does when it casts a non-numeric string *)
let prop_index_probe_matches_filter =
  let lit =
    QCheck.Gen.oneofl [ "5"; "10"; "0"; "'2.5'"; "'5'"; "'10'"; "' 7 '"; "'abc'"; "''"; "NULL" ]
  in
  let op = QCheck.Gen.oneofl [ "="; "<"; "<="; ">"; ">=" ] in
  let pred_gen =
    QCheck.Gen.(
      oneofl [ "n"; "s" ] >>= fun c ->
      oneof
        [
          map2 (fun o l -> Printf.sprintf "%s %s %s" c o l) op lit;
          map2 (fun o l -> Printf.sprintf "%s %s %s" l o c) op lit;
          map2 (fun lo hi -> Printf.sprintf "%s > %s AND %s <= %s" c lo c hi) lit lit;
        ])
  in
  let strs = QCheck.Gen.(list_size (int_range 0 6) (opt (oneofl [ "5"; "10"; " 7 "; "2.5"; "abc"; "" ]))) in
  QCheck.Test.make ~name:"index probes ≡ filtered scans for mixed-type bounds" ~count:300
    (QCheck.make
       ~print:(fun (p, ss) ->
         p ^ " over s = " ^ String.concat "," (List.map (Option.value ~default:"NULL") ss))
       QCheck.Gen.(pair pred_gen strs))
    (fun (p, ss) ->
      let db = Xdb_rel.Database.create () in
      let t =
        Xdb_rel.Database.create_table db "mix"
          [ { T.col_name = "n"; col_type = V.Tint }; { T.col_name = "s"; col_type = V.Tstr } ]
      in
      List.iteri
        (fun i so ->
          T.insert_values t
            [ (if i mod 3 = 2 then V.Null else V.Int (i * 3)); (match so with Some x -> V.Str x | None -> V.Null) ])
        ss;
      ignore (T.create_index t ~name:"mix_n" ~column:"n");
      ignore (T.create_index t ~name:"mix_s" ~column:"s");
      let w =
        match Xdb_sql.Parser.parse ("SELECT * FROM mix WHERE " ^ p) with
        | Xdb_sql.Ast.Select { where = Some w; _ } -> SQL.plain_expr w
        | _ -> assert false
      in
      let plan = A.Project ([ (A.Col (None, "n"), "n"); (A.Col (None, "s"), "s") ], A.Filter (w, A.Seq_scan { table = "mix"; alias = "mix" })) in
      let optimised = Xdb_rel.Optimizer.optimize_deep db plan in
      let outcome run =
        match run () with
        | rows -> Ok (List.sort compare (List.map (List.map (fun (_, v) -> V.to_string v)) rows))
        | exception (Xdb_rel.Exec.Exec_error m | V.Type_error m) -> Error m
      in
      let reference = outcome (fun () -> Xdb_rel.Exec.run db plan) in
      let show = function Ok rows -> Printf.sprintf "%d row(s)" (List.length rows) | Error m -> m in
      (contains "INDEX SCAN" (A.plan_sql optimised)
      || QCheck.Test.fail_reportf "no index probe: %s" (A.plan_sql optimised))
      && List.for_all
           (fun (name, run) ->
             let got = outcome run in
             got = reference
             || QCheck.Test.fail_reportf "%s: %s, the filter: %s" name (show got) (show reference))
           [
             ("compiled probe", fun () -> Xdb_rel.Exec.run db optimised);
             ("interpreted probe", fun () -> Ref_exec.run db optimised);
           ])

(* fuzz: the SQL parser must be total over printable garbage *)
let prop_sql_parser_total =
  QCheck.Test.make ~name:"sql parser is total" ~count:300
    QCheck.(string_gen_of_size Gen.(int_bound 60) Gen.printable)
    (fun s ->
      match Xdb_sql.Parser.parse s with
      | _ -> true
      | exception Xdb_sql.Parser.Parse_error _ -> true)

let () =
  Alcotest.run "sql"
    [
      ( "parser",
        [
          Alcotest.test_case "statements" `Quick test_parser;
          Alcotest.test_case "DML statements" `Quick test_parser_dml;
          Alcotest.test_case "comments" `Quick test_tokenizer_comments;
        ] );
      ( "execution",
        [
          Alcotest.test_case "table select + index" `Quick test_table_select;
          Alcotest.test_case "star" `Quick test_star_select;
          Alcotest.test_case "paper Table 5 (XMLTransform)" `Quick test_xmltransform_table5;
          Alcotest.test_case "XMLQuery over view" `Quick test_xmlquery_over_view;
          Alcotest.test_case "XMLQuery number() of a string" `Quick test_xmlquery_number;
          Alcotest.test_case "XMLQuery over a NULL column" `Quick test_xmlquery_null_column;
          Alcotest.test_case "paper Tables 9-11 (combined)" `Quick test_example2_combined;
          Alcotest.test_case "mixed select items" `Quick test_mixed_items;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "ANALYZE statement" `Quick test_analyze_statement;
        ] );
      ( "dml",
        [
          Alcotest.test_case "INSERT" `Quick test_insert;
          Alcotest.test_case "UPDATE maintains indexes" `Quick test_update_with_index;
          Alcotest.test_case "DELETE rebuilds indexes" `Quick test_delete_with_index;
          Alcotest.test_case "failed statements are atomic" `Quick test_dml_atomicity;
          Alcotest.test_case "DML marks stats stale" `Quick test_dml_marks_stats_stale;
          Alcotest.test_case "writes visible through transforms" `Quick
            test_dml_transform_visibility;
          Alcotest.test_case "keyed UPDATE/DELETE probe an index" `Quick test_keyed_dml_probes;
          Alcotest.test_case "UPDATE over its own index (Halloween)" `Quick test_update_halloween;
          Alcotest.test_case "unknown WHERE column fails" `Quick test_unknown_where_column;
          Alcotest.test_case "failed SET evaluation is atomic" `Quick test_failed_set_is_atomic;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_sql_parser_total;
          QCheck_alcotest.to_alcotest prop_dml_cache_consistency;
          QCheck_alcotest.to_alcotest prop_point_writes_keep_or_patch;
          QCheck_alcotest.to_alcotest prop_dml_where_matches_select;
          QCheck_alcotest.to_alcotest prop_index_probe_matches_filter;
        ] );
    ]
