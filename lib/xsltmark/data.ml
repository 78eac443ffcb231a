(** Deterministic workload generators for the XSLTMark-style suite.

    The original XSLTMark distribution (datapower.com) is no longer
    available; these generators reproduce the {e shapes} the paper's
    evaluation depends on: a flat record table for value-predicate cases
    (dbonerow/dbaccess), a master-detail hierarchy for report cases, a
    sales hierarchy for the aggregate cases (chart/total), a text document
    for string cases, and a recursive tree for the recursion cases.

    Every generator is deterministic (a small LCG seeded by the size), so
    differential tests are reproducible.  Each shape comes in two forms:
    a standalone XML document and a relational database + publishing view
    pair producing the identical document. *)

module X = Xdb_xml.Types
module B = Xdb_xml.Builder
module P = Xdb_rel.Publish
module V = Xdb_rel.Value
module T = Xdb_rel.Table

(* linear congruential generator: deterministic pseudo-random values *)
let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

let categories = [| "A"; "B"; "C"; "D"; "E" |]

let int_col name = { T.col_name = name; col_type = V.Tint }
let str_col name = { T.col_name = name; col_type = V.Tstr }

type dbview = { db : Xdb_rel.Database.t; view : P.view }

let leaf_elem name col = P.Elem { name; attrs = []; content = [ P.Text_col col ] }

(* ------------------------------------------------------------------ *)
(* records: flat table of n rows                                       *)
(* ------------------------------------------------------------------ *)

let records_row rand i =
  let id = i + 1 in
  let name = Printf.sprintf "name%06d" id in
  let value = rand 10000 in
  let category = categories.(rand 5) in
  (id, name, value, category)

(** Standalone document: [<table><row><id/><name/><value/><category/></row>…</table>] *)
let records_doc n =
  let rand = lcg (n + 17) in
  let rows =
    List.init n (fun i ->
        let id, name, value, category = records_row rand i in
        B.elem "row"
          [
            B.elem "id" [ B.text (string_of_int id) ];
            B.elem "name" [ B.text name ];
            B.elem "value" [ B.text (string_of_int value) ];
            B.elem "category" [ B.text category ];
          ])
  in
  B.document (B.elem "table" rows)

(** Database + view producing the same content as {!records_doc}: one
    published document per [tables] row.  [docs] (default 1) shards the
    [n] records across that many base-table rows — the paper's
    XMLType-column scenario of many documents in one table, and the shape
    domain-parallel execution splits by document.  [docs = 1] publishes exactly
    {!records_doc}[ n]. *)
let records_db ?(docs = 1) n : dbview =
  let docs = max 1 (min (max 1 n) docs) in
  let per_doc = (n + docs - 1) / docs in
  let db = Xdb_rel.Database.create () in
  let meta = Xdb_rel.Database.create_table db "tables" [ int_col "tid" ] in
  for d = 1 to docs do
    T.insert_values meta [ V.Int d ]
  done;
  let rows =
    Xdb_rel.Database.create_table db "rows"
      [ int_col "tid"; int_col "id"; str_col "name"; int_col "value"; str_col "category" ]
  in
  let rand = lcg (n + 17) in
  for i = 0 to n - 1 do
    let id, name, value, category = records_row rand i in
    let tid = (i / per_doc) + 1 in
    T.insert_values rows [ V.Int tid; V.Int id; V.Str name; V.Int value; V.Str category ]
  done;
  (* correlation index only when sharded: with one document every row
     matches [tid] and the index would just shadow the value predicates *)
  if docs > 1 then ignore (T.create_index rows ~name:"rows_tid_idx" ~column:"tid");
  ignore (T.create_index rows ~name:"rows_id_idx" ~column:"id");
  ignore (T.create_index rows ~name:"rows_value_idx" ~column:"value");
  ignore (T.create_index rows ~name:"rows_category_idx" ~column:"category");
  let view =
    {
      P.view_name = "records_vu";
      base_table = "tables";
      base_alias = "tables";
      column = "doc";
      spec =
        P.Elem
          {
            name = "table";
            attrs = [];
            content =
              [
                P.Agg
                  {
                    table = "rows";
                    alias = "rows";
                    correlate = [ ("tid", "tid") ];
                    where = None;
                    order_by = [ ("id", Xdb_rel.Algebra.Asc) ];
                    body =
                      P.Elem
                        {
                          name = "row";
                          attrs = [];
                          content =
                            [
                              leaf_elem "id" "id";
                              leaf_elem "name" "name";
                              leaf_elem "value" "value";
                              leaf_elem "category" "category";
                            ];
                        };
                  };
              ];
          };
    }
  in
  { db; view }

(** The id of the one row dbonerow selects: deterministic middle row. *)
let dbonerow_target n = (n / 2) + 1

(* ------------------------------------------------------------------ *)
(* sales: regions with items (aggregates)                              *)
(* ------------------------------------------------------------------ *)

let sales_doc n_regions items_per_region =
  let rand = lcg (n_regions + (31 * items_per_region)) in
  let regions =
    List.init n_regions (fun r ->
        let items =
          List.init items_per_region (fun i ->
              B.elem "item"
                [
                  B.elem "product" [ B.text (Printf.sprintf "p%04d" ((r * items_per_region) + i)) ];
                  B.elem "amount" [ B.text (string_of_int (1 + rand 500)) ];
                ])
        in
        B.elem "region" (B.elem "name" [ B.text (Printf.sprintf "region%03d" r) ] :: items))
  in
  B.document (B.elem "sales" regions)

(** [docs] as in {!records_db}: shard the regions across that many
    [salesdoc] base rows (one published document each); [rid] stays
    globally unique so items never leak across documents. *)
let sales_db ?(docs = 1) n_regions items_per_region : dbview =
  let docs = max 1 (min (max 1 n_regions) docs) in
  let per_doc = (n_regions + docs - 1) / docs in
  let db = Xdb_rel.Database.create () in
  let meta = Xdb_rel.Database.create_table db "salesdoc" [ int_col "sid" ] in
  for d = 1 to docs do
    T.insert_values meta [ V.Int d ]
  done;
  let region =
    Xdb_rel.Database.create_table db "region" [ int_col "sid"; int_col "rid"; str_col "rname" ]
  in
  let item =
    Xdb_rel.Database.create_table db "item"
      [ int_col "rid"; str_col "product"; int_col "amount" ]
  in
  let rand = lcg (n_regions + (31 * items_per_region)) in
  for r = 0 to n_regions - 1 do
    let sid = (r / per_doc) + 1 in
    T.insert_values region [ V.Int sid; V.Int r; V.Str (Printf.sprintf "region%03d" r) ];
    for i = 0 to items_per_region - 1 do
      T.insert_values item
        [ V.Int r;
          V.Str (Printf.sprintf "p%04d" ((r * items_per_region) + i));
          V.Int (1 + rand 500) ]
    done
  done;
  if docs > 1 then ignore (T.create_index region ~name:"region_sid_idx" ~column:"sid");
  ignore (T.create_index item ~name:"item_rid_idx" ~column:"rid");
  let view =
    {
      P.view_name = "sales_vu";
      base_table = "salesdoc";
      base_alias = "salesdoc";
      column = "doc";
      spec =
        P.Elem
          {
            name = "sales";
            attrs = [];
            content =
              [
                P.Agg
                  {
                    table = "region";
                    alias = "region";
                    correlate = [ ("sid", "sid") ];
                    where = None;
                    order_by = [ ("rid", Xdb_rel.Algebra.Asc) ];
                    body =
                      P.Elem
                        {
                          name = "region";
                          attrs = [];
                          content =
                            [
                              leaf_elem "name" "rname";
                              P.Agg
                                {
                                  table = "item";
                                  alias = "item";
                                  correlate = [ ("rid", "rid") ];
                                  where = None;
                                  order_by = [ ("product", Xdb_rel.Algebra.Asc) ];
                                  body =
                                    P.Elem
                                      {
                                        name = "item";
                                        attrs = [];
                                        content =
                                          [
                                            leaf_elem "product" "product";
                                            leaf_elem "amount" "amount";
                                          ];
                                      };
                                };
                            ];
                        };
                  };
              ];
          };
    }
  in
  { db; view }

(* ------------------------------------------------------------------ *)
(* dept/emp master-detail (paper Example 1)                            *)
(* ------------------------------------------------------------------ *)

let dept_emp_db n_depts emps_per_dept : dbview =
  let db = Xdb_rel.Database.create () in
  let dept =
    Xdb_rel.Database.create_table db "dept" [ int_col "deptno"; str_col "dname"; str_col "loc" ]
  in
  let emp =
    Xdb_rel.Database.create_table db "emp"
      [ int_col "empno"; str_col "ename"; int_col "sal"; int_col "deptno" ]
  in
  let rand = lcg (n_depts * 7) in
  for d = 0 to n_depts - 1 do
    T.insert_values dept
      [ V.Int (10 * (d + 1)); V.Str (Printf.sprintf "DEPT%03d" d); V.Str (Printf.sprintf "CITY%03d" d) ];
    for e = 0 to emps_per_dept - 1 do
      T.insert_values emp
        [ V.Int ((1000 * (d + 1)) + e);
          V.Str (Printf.sprintf "EMP%05d" ((d * emps_per_dept) + e));
          V.Int (500 + rand 4500);
          V.Int (10 * (d + 1)) ]
    done
  done;
  ignore (T.create_index emp ~name:"emp_sal_idx" ~column:"sal");
  ignore (T.create_index emp ~name:"emp_deptno_idx" ~column:"deptno");
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
                leaf_elem "dname" "dname";
                leaf_elem "loc" "loc";
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
                            order_by = [ ("empno", Xdb_rel.Algebra.Asc) ];
                            body =
                              P.Elem
                                {
                                  name = "emp";
                                  attrs = [];
                                  content =
                                    [
                                      leaf_elem "empno" "empno";
                                      leaf_elem "ename" "ename";
                                      leaf_elem "sal" "sal";
                                    ];
                                };
                          };
                      ];
                  };
              ];
          };
    }
  in
  { db; view }

(* ------------------------------------------------------------------ *)
(* text document (string / output cases)                               *)
(* ------------------------------------------------------------------ *)

let words =
  [| "partial"; "evaluation"; "xslt"; "xquery"; "rewrite"; "oracle"; "index"; "btree";
     "template"; "pattern"; "relational"; "schema"; "aggregate"; "publish" |]

let text_doc n_paras =
  let rand = lcg (n_paras + 3) in
  let paras =
    List.init n_paras (fun i ->
        let sentence =
          String.concat " " (List.init (3 + rand 8) (fun _ -> words.(rand (Array.length words))))
        in
        B.elem "para" ~attrs:[ ("idx", string_of_int i) ] [ B.text sentence ])
  in
  B.document (B.elem "doc" (B.elem "title" [ B.text "sample document" ] :: paras))

(* ------------------------------------------------------------------ *)
(* recursive tree (recursion cases; recursive schema)                  *)
(* ------------------------------------------------------------------ *)

let rec tree_node depth width label =
  let kids =
    if depth = 0 then []
    else List.init width (fun i -> tree_node (depth - 1) width (Printf.sprintf "%s.%d" label i))
  in
  B.elem "node" (B.elem "label" [ B.text label ] :: kids)

let tree_doc ~depth ~width = B.document (B.elem "tree" [ tree_node depth width "r" ])

(* ------------------------------------------------------------------ *)
(* number list (numeric / recursion-with-params cases)                 *)
(* ------------------------------------------------------------------ *)

let numbers_doc n =
  let rand = lcg (n + 29) in
  B.document
    (B.elem "numbers" (List.init n (fun _ -> B.elem "num" [ B.text (string_of_int (1 + rand 99)) ])))
