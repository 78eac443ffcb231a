(** SQL/XML statement routing over the core pipeline — the half of the
    SQL surface that needs XMLType views, XSLT views and the compiled
    transform machinery.  The plain-relational half (base-table SELECTs,
    ANALYZE, DML) lives in [Xdb_sql.Engine]; this module layers the
    paper's routing on top:

    - [SELECT XMLTransform(v.col, '…') FROM v] over a publishing view
      runs the full XSLT rewrite (stylesheet → XQuery → SQL/XML plan
      over the base tables) and falls back to functional evaluation only
      when the generated query leaves the rewritable fragment;
    - [XMLQuery('…' PASSING v.col RETURNING CONTENT)] runs the
      XQuery→SQL/XML rewrite directly;
    - the same over an {e XSLT view} (paper Example 2) applies the
      combined optimisation: the outer path composes statically over the
      generated constructor tree, rewritten to one plan;
    - [CREATE VIEW … AS SELECT XMLTransform(…)] creates an XSLT view.

    The caller supplies a {!ctx} of capabilities (view lookup, cached
    compilation, XSLT-view registration); {!Engine.execute} builds it
    over its registry so plans compile through the plan cache and XSLT
    views live on the engine, shared by every session. *)

module A = Xdb_rel.Algebra
module V = Xdb_rel.Value
module P = Xdb_rel.Publish
module E = Xdb_rel.Exec
module Q = Xdb_xquery.Ast
module Sql = Xdb_sql.Engine
open Xdb_sql.Ast

let err fmt = Printf.ksprintf (fun m -> raise (Sql.Sql_error m)) fmt

type xslt_view = {
  xv_name : string;
  xv_column : string;  (** name of the transformed output column *)
  xv_compiled : Pipeline.compiled;
}

type ctx = {
  db : Xdb_rel.Database.t;
  find_xml_view : string -> P.view option;
      (** case-insensitive lookup of a registered XMLType publishing view *)
  find_xslt_view : string -> xslt_view option;
  register_xslt_view : xslt_view -> unit;
  compile : P.view -> string -> Pipeline.compiled;
      (** stylesheet compilation — {!Engine} passes the registry's cached
          compile, so repeated statements share plans *)
}

(* ------------------------------------------------------------------ *)
(* XMLType-view selects                                                *)
(* ------------------------------------------------------------------ *)

let run_xml_view_select ctx (view : P.view) (sel : select) : Sql.result =
  let alias = Option.value ~default:sel.from_name sel.from_alias in
  let notes = ref [] in
  (* translate each select item into a per-base-row SQL/XML expression; when
     a translation is impossible, fall back to functional evaluation for
     that item *)
  let translate_item i (e, item_alias) :
      string * [ `Sql of A.expr | `Functional of Xdb_xml.Types.node -> string ] =
    let name = Sql.item_name i (e, item_alias) in
    match e with
    | Xml_transform (input, stylesheet) when Sql.is_view_column view alias input -> (
        let compiled = ctx.compile view stylesheet in
        match Pipeline.sql_plan compiled with
        | Some _ ->
            notes :=
              Printf.sprintf "%s: XSLT rewrite (%s mode)" name
                (Pipeline.mode_name (Pipeline.translation compiled).Xslt2xquery.mode)
              :: !notes;
            ( name,
              `Sql
                (Xdb_xquery.Sql_rewrite.rewrite_prog ctx.db view
                   (Pipeline.translation compiled).Xslt2xquery.query) )
        | None ->
            notes :=
              Printf.sprintf "%s: functional fallback (%s)" name
                (Option.value ~default:"?" (Pipeline.sql_fallback_reason compiled))
              :: !notes;
            ( name,
              `Functional
                (fun doc ->
                  let frag = Xdb_xslt.Vm.transform (Pipeline.vm_prog compiled) doc in
                  Xdb_xml.Serializer.node_list_to_string frag.Xdb_xml.Types.children) ))
    | Xml_query { query; passing } when Sql.is_view_column view alias passing -> (
        let prog = Xdb_xquery.Parser.parse_prog query in
        match Xdb_xquery.Sql_rewrite.rewrite_prog ctx.db view prog with
        | sql ->
            notes := Printf.sprintf "%s: XQuery rewrite" name :: !notes;
            (name, `Sql sql)
        | exception Xdb_xquery.Sql_rewrite.Not_rewritable reason ->
            notes := Printf.sprintf "%s: dynamic XQuery (%s)" name reason :: !notes;
            ( name,
              `Functional
                (fun doc ->
                  Xdb_xml.Serializer.node_list_to_string
                    (Xdb_xquery.Eval.run_to_nodes prog ~context:doc)) ))
    | Col _ -> (name, `Sql (Sql.plain_expr e))
    | _ -> err "unsupported select item over an XMLType view"
  in
  let items = List.mapi translate_item sel.items in
  let scan = A.Seq_scan { table = view.P.base_table; alias = view.P.base_alias } in
  let filtered =
    match sel.where with None -> scan | Some w -> A.Filter (Sql.plain_expr w, scan)
  in
  let sql_fields =
    List.filter_map (function n, `Sql e -> Some (e, n) | _, `Functional _ -> None) items
  in
  let plan = Xdb_rel.Optimizer.optimize_deep ctx.db (A.Project (sql_fields, filtered)) in
  let layout, sql_rows = E.run_arrays ctx.db plan in
  (* functional items evaluate over materialised documents, row-aligned *)
  let functional_items =
    List.filter_map (function n, `Functional f -> Some (n, f) | _ -> None) items
  in
  let docs =
    if functional_items = [] then []
    else if sel.where <> None then
      err "WHERE is not supported together with non-rewritable XML select items"
    else P.materialize ctx.db view
  in
  let columns = List.map fst items in
  (* resolve every SQL item's output slot once against the plan layout *)
  let extractors =
    List.map
      (fun (n, kind) ->
        match kind with
        | `Sql _ -> (
            match Xdb_rel.Layout.slot_opt layout n with
            | Some s -> fun (r : V.t array) _ -> r.(s)
            | None -> err "plan lost column %s" n)
        | `Functional f -> fun _ row_idx -> V.Str (f (List.nth docs row_idx)))
      items
  in
  let rows =
    List.mapi (fun row_idx sql_row -> List.map (fun ex -> ex sql_row row_idx) extractors) sql_rows
  in
  { Sql.columns; rows; note = Some (String.concat "; " (List.rev !notes)) }

(* ------------------------------------------------------------------ *)
(* XSLT-view selects (Example 2)                                       *)
(* ------------------------------------------------------------------ *)

(* extract a child-step path from "for $x in ./steps return $x" or "./steps" *)
let forwarding_steps (prog : Q.prog) : Xdb_xpath.Ast.step list option =
  let plain_child_steps steps =
    if
      List.for_all
        (fun (s : Xdb_xpath.Ast.step) ->
          s.Xdb_xpath.Ast.axis = Xdb_xpath.Ast.Child && s.Xdb_xpath.Ast.predicates = [])
        steps
    then Some steps
    else None
  in
  match (prog.Q.var_decls, prog.Q.funs, prog.Q.body) with
  | [], [], Q.Path (Q.Context_item, steps) -> plain_child_steps steps
  | [], [], Q.Flwor ([ Q.For { var; source = Q.Path (Q.Context_item, steps); _ } ], Q.Var v)
    when v = var ->
      plain_child_steps steps
  | _ -> None

let run_xslt_view_select ctx (xv : xslt_view) (sel : select) : Sql.result =
  if sel.where <> None then err "WHERE over an XSLT view is not supported";
  let alias = Option.value ~default:sel.from_name sel.from_alias in
  let item =
    match sel.items with
    | [ (e, alias_opt) ] -> (e, Sql.item_name 0 (e, alias_opt))
    | _ -> err "exactly one select item is supported over an XSLT view"
  in
  match item with
  | Xml_query { query; passing }, name
    when (match passing with
         | Col (None, c) -> String.lowercase_ascii c = String.lowercase_ascii xv.xv_column
         | Col (Some a, c) ->
             String.lowercase_ascii c = String.lowercase_ascii xv.xv_column
             && (String.lowercase_ascii a = String.lowercase_ascii alias
                || String.lowercase_ascii a = String.lowercase_ascii xv.xv_name)
         | _ -> false) -> (
      let prog = Xdb_xquery.Parser.parse_prog query in
      let combined_plan, composed, note =
        match forwarding_steps prog with
        | Some steps ->
            let plan, composed = Pipeline.compose ctx.db xv.xv_compiled steps in
            (plan, Some composed, "combined XSLT+XQuery optimisation")
        | None -> (None, None, "dynamic evaluation over the XSLT view result")
      in
      match (combined_plan, composed) with
      | Some plan, _ ->
          let layout, rows = E.run_arrays ctx.db plan in
          let slot =
            match Xdb_rel.Layout.slot_opt layout "result" with
            | Some s -> s
            | None -> err "combined plan produced no result column"
          in
          {
            Sql.columns = [ name ];
            rows = List.map (fun (r : V.t array) -> [ r.(slot) ]) rows;
            note = Some (note ^ " (paper Table 11 plan)");
          }
      | None, Some composed ->
          let outs = Pipeline.run_composed_dynamic ctx.db xv.xv_compiled composed in
          {
            Sql.columns = [ name ];
            rows = List.map (fun s -> [ V.Str s ]) outs;
            note = Some note;
          }
      | None, None ->
          (* evaluate the XSLT view, then the outer query on each result *)
          let inner = Pipeline.run_rewrite ctx.db xv.xv_compiled in
          let outs =
            List.map
              (fun text ->
                let doc = Xdb_xml.Parser.parse_fragment text in
                let wrapper = Xdb_xml.Parser.document_element doc in
                V.Str
                  (Xdb_xml.Serializer.node_list_to_string
                     (Xdb_xquery.Eval.run_to_nodes prog ~context:wrapper)))
              inner
          in
          {
            Sql.columns = [ name ];
            rows = List.map (fun v -> [ v ]) outs;
            note = Some note;
          })
  | Col (_, c), name when String.lowercase_ascii c = String.lowercase_ascii xv.xv_column ->
      let outs = Pipeline.run_rewrite ctx.db xv.xv_compiled in
      {
        Sql.columns = [ name ];
        rows = List.map (fun s -> [ V.Str s ]) outs;
        note = Some "XSLT view evaluated through the rewrite";
      }
  | _ -> err "unsupported select item over an XSLT view"

(* ------------------------------------------------------------------ *)
(* Statement routing                                                   *)
(* ------------------------------------------------------------------ *)

let run_select ctx (sel : select) : Sql.result =
  match ctx.find_xslt_view sel.from_name with
  | Some xv -> run_xslt_view_select ctx xv sel
  | None -> (
      match ctx.find_xml_view sel.from_name with
      | Some view -> run_xml_view_select ctx view sel
      | None -> (
          match Xdb_rel.Database.table_opt ctx.db sel.from_name with
          | Some tbl -> Sql.run_table_select ctx.db tbl sel
          | None -> err "unknown table or view %S" sel.from_name))

let run_create_view ctx name (sel : select) : Sql.result =
  (* only XSLT views (a single XMLTransform over a publishing view) can
     be created from SQL; publishing views are registered via the API *)
  match ctx.find_xml_view sel.from_name with
  | None -> err "CREATE VIEW: FROM must name a registered XMLType view"
  | Some view -> (
      match sel.items with
      | [ (Xml_transform (input, stylesheet), alias) ]
        when Sql.is_view_column view (Option.value ~default:sel.from_name sel.from_alias) input
        ->
          if sel.where <> None then err "CREATE VIEW: WHERE is not supported";
          let compiled = ctx.compile view stylesheet in
          let column = Option.value ~default:"xslt_rslt" alias in
          ctx.register_xslt_view { xv_name = name; xv_column = column; xv_compiled = compiled };
          {
            Sql.columns = [];
            rows = [];
            note =
              Some
                (Printf.sprintf "XSLT view %s(%s) created (%s mode)" name column
                   (Pipeline.mode_name (Pipeline.translation compiled).Xslt2xquery.mode));
          }
      | _ -> err "CREATE VIEW: body must be a single XMLTransform over the view column")

(** [run ctx stmt] — route one parsed statement: view selects and CREATE
    VIEW through the pipeline, everything plain-relational (base-table
    selects, ANALYZE, DML) through [Xdb_sql.Engine]. *)
let run ctx (stmt : statement) : Sql.result =
  match stmt with
  | Select sel -> run_select ctx sel
  | Analyze target -> Sql.run_analyze ctx.db target
  | Create_view (name, sel) -> run_create_view ctx name sel
  | Insert _ | Update _ | Delete _ -> Sql.run_dml ctx.db stmt
