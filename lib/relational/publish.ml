(** SQL/XML publishing specs and XMLType views.

    A publishing spec is the declarative description of how an XMLType view
    column is generated from relational data (paper Table 3: nested
    [XMLElement] / [XMLAgg] over master-detail tables).  It serves three
    roles:

    + {b Materialisation} — building the XML documents, which is exactly
      what the functional (no-rewrite) evaluation must do first;
    + {b Structural information} — deriving an {!Xdb_schema.Types.t} for
      the partial evaluator: scalar-bound elements have cardinality one,
      [Agg] children are unbounded, and children of an element form a
      [sequence] model group (paper §3.2, bullet 2);
    + {b Rewrite target} — the XQuery→SQL/XML rewriter navigates the spec
      to map path steps to columns and nested scans (paper Tables 7/11). *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
module S = Xdb_schema.Types

type spec =
  | Elem of { name : string; attrs : (string * Algebra.expr) list; content : spec list }
      (** [XMLElement(name, XMLAttributes(...), content...)] *)
  | Text_col of string  (** text content from a column of the current scope *)
  | Text_expr of Algebra.expr  (** computed text content *)
  | Text_const of string
  | Agg of {
      table : string;
      alias : string;
      correlate : (string * string) list;
          (** (inner column, outer column) equi-correlations *)
      where : Algebra.expr option;  (** extra uncorrelated predicate *)
      order_by : (string * Algebra.order_dir) list;
      body : spec;  (** one body instance per detail row *)
    }  (** correlated scalar subquery with [XMLAgg] (paper Table 3) *)

type view = {
  view_name : string;
  base_table : string;
  base_alias : string;
  column : string;  (** name of the XMLType output column *)
  spec : spec;  (** one document per base-table row *)
}

exception Publish_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Publish_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Materialisation                                                     *)
(* ------------------------------------------------------------------ *)

(* the names {!Exec.scan_bindings} binds for a row of [tbl], in order *)
let scan_names (tbl : Table.t) alias =
  List.map fst
    (Exec.scan_bindings tbl alias (Array.make (Array.length tbl.Table.columns) Value.Null))

(* an expression of the spec, compiled once against the names its
   environment rows bind, evaluated per row on their values *)
let compile_site db names e =
  let f = Exec.compile_expr db (Layout.of_bindings names) e in
  fun (env : Exec.row) -> f (Array.of_list (List.map snd env))

(* detail rows an [Agg] iterates for one outer row: probe a B-tree on a
   correlation column when one exists (what the RDBMS does when evaluating
   the view), fall back to a scan; then residual correlations, the WHERE
   predicate and ORDER BY *)
let agg_rows (tbl : Table.t) (env : Exec.row) ~alias ~correlate ~where ~order_by : Exec.row list =
  let indexed_correlation =
    List.find_map
      (fun (inner_col, outer_col) ->
        match Table.find_index tbl inner_col with
        | Some idx -> Some (idx, inner_col, outer_col)
        | None -> None)
      correlate
  in
  let rows =
    match indexed_correlation with
    | Some (idx, _, outer_col) ->
        let key =
          match List.assoc_opt outer_col env with
          | Some v -> v
          | None -> err "correlation column missing (outer %s)" outer_col
        in
        List.map
          (fun rid -> Exec.scan_bindings tbl alias (Table.row tbl rid))
          (Btree.find idx.Table.tree key)
    | None ->
        List.rev (Table.fold (fun acc _ r -> Exec.scan_bindings tbl alias r :: acc) [] tbl)
  in
  let rows =
    List.filter
      (fun irow ->
        List.for_all
          (fun (inner_col, outer_col) ->
            match (List.assoc_opt inner_col irow, List.assoc_opt outer_col env) with
            | Some iv, Some ov -> Value.equal_sql iv ov
            | _ -> err "correlation column missing (%s = outer %s)" inner_col outer_col)
          correlate)
      rows
  in
  let rows =
    match where with
    | None -> rows
    | Some cond -> List.filter (fun irow -> Exec.bool_of_value (cond (irow @ env))) rows
  in
  if order_by = [] then rows
  else
    let key r = List.map (fun (c, d) -> (List.assoc c r, d)) order_by in
    List.stable_sort
      (fun a b ->
        let rec go = function
          | [] -> 0
          | ((va, d), (vb, _)) :: rest -> (
              let c = Value.compare_key va vb in
              let c = match d with Algebra.Asc -> c | Algebra.Desc -> -c in
              match c with 0 -> go rest | c -> c)
        in
        go (List.combine (key a) (key b)))
      rows

(* [emit_spec db names spec env sink] — the publishing spec as an event
   stream over an environment row binding [names]: the single
   construction path.  Its expressions (attribute values, [Text_expr],
   [Agg] WHERE) compile when it is applied to [spec], once per
   materialisation. *)
let rec emit_spec db names spec : Exec.row -> E.sink -> unit =
  match spec with
  | Text_const s ->
      let text = E.Text s in
      fun _ sink -> sink.E.emit text
  | Text_col c -> (
      fun env sink ->
        match List.assoc_opt c env with
        | None -> err "publishing spec references unknown column %s" c
        | Some Value.Null -> ()
        | Some v -> sink.E.emit (E.Text (Value.to_string v)))
  | Text_expr e -> (
      let f = compile_site db names e in
      fun env sink ->
        match f env with Value.Null -> () | v -> sink.E.emit (E.Text (Value.to_string v)))
  | Elem { name; attrs; content } ->
      let start = E.Start_element (X.qname name) in
      let attrs = List.map (fun (an, ae) -> (X.qname an, compile_site db names ae)) attrs in
      let content = List.map (emit_spec db names) content in
      fun env sink ->
        sink.E.emit start;
        List.iter
          (fun (aq, f) ->
            match f env with
            | Value.Null -> ()
            | v -> sink.E.emit (E.Attr (aq, Value.to_string v)))
          attrs;
        List.iter (fun c -> c env sink) content;
        sink.E.emit E.End_element
  | Agg { table; alias; correlate; where; order_by; body } ->
      let tbl = Database.table db table in
      let names = scan_names tbl alias @ names in
      let where = Option.map (compile_site db names) where in
      let body = emit_spec db names body in
      fun env sink ->
        List.iter
          (fun irow -> body (irow @ env) sink)
          (agg_rows tbl env ~alias ~correlate ~where ~order_by)

(* [f acc env emit] over the base rows of [view], in table order: [env]
   is the row's bindings and [emit] the view's spec compiled for them *)
let fold_documents db view f acc =
  let tbl = Database.table db view.base_table in
  let emit = emit_spec db (scan_names tbl view.base_alias) view.spec in
  Table.fold (fun acc _ r -> f acc (Exec.scan_bindings tbl view.base_alias r) emit) acc tbl

(** [documents db view] — one emitter per base row, in table order: the
    row's document as events into the sink it is given. *)
let documents db view =
  fold_documents db view (fun acc env emit -> (fun sink -> emit env sink) :: acc) [] |> List.rev

(** [materialize db view] — one XML document (as a document node) per base
    table row, in table order.  This is the input the functional XSLT
    evaluation consumes. *)
let materialize db view =
  fold_documents db view
    (fun acc env emit ->
      let b = E.tree_builder () in
      emit env (E.builder_sink b);
      let doc = X.make X.Document in
      List.iter (X.append_child doc) (E.builder_result b);
      X.reindex doc;
      doc :: acc)
    []
  |> List.rev

(** [serialize ?meth ?indent buf emit] — one document's events, from
    its emitter, serialized through [buf] (cleared first). *)
let serialize ?(meth = E.Xml) ?(indent = false) buf emit =
  Buffer.clear buf;
  let sink = E.serializing_sink ~meth ~indent buf in
  emit sink;
  sink.E.finish ();
  Buffer.contents buf

(** [materialize_serialized db view] — the documents of {!materialize} as
    serialized strings, one per base row, streaming spec events straight
    into a reused buffer: no tree is ever built. *)
let materialize_serialized db ?meth ?indent view : string list =
  let buf = Buffer.create 1024 in
  List.map (serialize ?meth ?indent buf) (documents db view)

(* ------------------------------------------------------------------ *)
(* Structural information                                              *)
(* ------------------------------------------------------------------ *)

(** Derive the element declarations for the documents [materialize]
    produces.  Scalar content ⇒ exactly-one text leaf; [Agg] bodies ⇒
    unbounded cardinality; element children form a [sequence] group. *)
let to_schema view : S.t =
  let decls : (string, S.element_decl) Hashtbl.t = Hashtbl.create 16 in
  let add_decl d =
    match Hashtbl.find_opt decls d.S.name with
    | None -> Hashtbl.add decls d.S.name d
    | Some existing ->
        if existing <> d then err "element %s published with two different shapes" d.S.name
  in
  let rec walk spec ~(occurs : S.occurs) : S.particle list * bool =
    match spec with
    | Text_const _ | Text_col _ | Text_expr _ -> ([], true)
    | Elem { name; attrs; content } ->
        let parts, has_text =
          List.fold_left
            (fun (ps, txt) c ->
              let ps', txt' = walk c ~occurs:S.exactly_one in
              (ps @ ps', txt || txt'))
            ([], false) content
        in
        add_decl
          {
            S.name;
            group = S.Sequence;
            particles = parts;
            has_text;
            attrs = List.map fst attrs;
          };
        ([ { S.child = name; occurs } ], false)
    | Agg { body; _ } ->
        let parts, _ = walk body ~occurs:S.many in
        (parts, false)
  in
  let root_particles, _ = walk view.spec ~occurs:S.exactly_one in
  match root_particles with
  | [ { S.child = root; _ } ] ->
      S.make ~root (Hashtbl.fold (fun _ d acc -> d :: acc) decls [])
  | _ -> err "view %s must publish exactly one root element" view.view_name

(* ------------------------------------------------------------------ *)
(* Spec navigation (used by the XQuery→SQL/XML rewriter)               *)
(* ------------------------------------------------------------------ *)

let spec_elem_name = function
  | Elem { name; _ } -> Some name
  | Agg { body = Elem { name; _ }; _ } -> Some name
  | _ -> None

(** Children of a located element that are themselves elements or aggs. *)
let child_specs = function
  | Elem { content; _ } -> content
  | Agg { body = Elem { content; _ }; _ } -> content
  | _ -> []

(** [navigate spec name] finds the child spec publishing element [name]. *)
let navigate spec name =
  List.find_opt (fun c -> spec_elem_name c = Some name) (child_specs spec)

(** The scalar column bound as the text content of a located element, if its
    content is a single [Text_col]. *)
let scalar_column = function
  | Elem { content = [ Text_col c ]; _ } | Agg { body = Elem { content = [ Text_col c ]; _ }; _ }
    ->
      Some c
  | _ -> None

(** Base tables a view's materialisation reads: the base table, every
    [Agg] subquery table, and any table scanned by an algebra subplan
    embedded in an attribute or [Text_expr] — deduplicated in spec
    order.  These are the data-version dependencies of a cached publish
    (and the floor of a cached transform's dependencies). *)
let view_tables (v : view) =
  let acc = ref [] in
  let add t = if not (List.mem t !acc) then acc := t :: !acc in
  let add_expr e =
    List.iter (fun p -> List.iter add (Algebra.tables_of p)) (Algebra.subplans_of_expr e)
  in
  let rec go = function
    | Elem { attrs; content; _ } ->
        List.iter (fun (_, e) -> add_expr e) attrs;
        List.iter go content
    | Text_col _ | Text_const _ -> ()
    | Text_expr e -> add_expr e
    | Agg { table; where; body; _ } ->
        add table;
        Option.iter add_expr where;
        go body
  in
  add v.base_table;
  go v.spec;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Catalog of views                                                    *)
(* ------------------------------------------------------------------ *)

type catalog = {
  db : Database.t;
  by_name : (string, view) Hashtbl.t;
  mutable rev_order : view list;  (** registration order, newest first *)
}

let create_catalog db = { db; by_name = Hashtbl.create 8; rev_order = [] }

let register cat view =
  if Hashtbl.mem cat.by_name view.view_name then
    err "view %s is already registered" view.view_name;
  Hashtbl.add cat.by_name view.view_name view;
  cat.rev_order <- view :: cat.rev_order

let find_view cat name = Hashtbl.find_opt cat.by_name name
let catalog_views cat = List.rev cat.rev_order
let catalog_db cat = cat.db
