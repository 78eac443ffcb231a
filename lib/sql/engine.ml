(** Execution of the plain-relational SQL surface.

    This layer owns every statement that touches only relational state:
    base-table SELECTs (Volcano executor with index selection), ANALYZE,
    and the DML statements — INSERT/UPDATE/DELETE with B-tree index
    maintenance, two-phase validation (nothing mutates until the whole
    statement has type-checked) and a per-table [data_version] bump so
    higher layers can invalidate cached transform results precisely.

    Statements that involve XMLType or XSLT views route through
    [Xdb_core.Sql_front], which reuses the scalar translation exported
    here; the dependency points from the core facade down into this
    library, never back. *)

module A = Xdb_rel.Algebra
module V = Xdb_rel.Value
module E = Xdb_rel.Exec
module T = Xdb_rel.Table
open Ast

exception Sql_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Sql_error m)) fmt

(* column resolution failures are statement-validation errors, not
   executor faults: surface them as Sql_error so a bad column name in
   DML fails the statement the same way any other validation does *)
let col_pos tbl name = try T.column_pos tbl name with T.Table_error m -> err "%s" m

type result = {
  columns : string list;
  rows : V.t list list;
  note : string option;  (** execution-strategy remark (rewrite/fallback) *)
}

(* ------------------------------------------------------------------ *)
(* Scalar translation to the relational algebra                        *)
(* ------------------------------------------------------------------ *)

let algebra_binop = function
  | Eq -> A.Eq
  | Neq -> A.Neq
  | Lt -> A.Lt
  | Leq -> A.Leq
  | Gt -> A.Gt
  | Geq -> A.Geq
  | And -> A.And
  | Or -> A.Or
  | Add -> A.Add
  | Sub -> A.Sub
  | Mul -> A.Mul
  | Div -> A.Div

let rec plain_expr = function
  | Col (a, c) -> A.Col (a, c)
  | Str_lit s -> A.Const (V.Str s)
  | Int_lit i -> A.Const (V.Int i)
  | Null_lit -> A.Const V.Null
  | Binop (op, a, b) -> A.Binop (algebra_binop op, plain_expr a, plain_expr b)
  | Star -> err "* is only allowed alone in a select list"
  | Xml_transform _ | Xml_query _ -> err "XML functions are only supported over XMLType views"

let item_name i (e, alias) =
  match alias with
  | Some a -> a
  | None -> (
      match e with
      | Col (_, c) -> c
      | _ -> Printf.sprintf "col%d" (i + 1))

(* Is [e] a reference to the view's XMLType column? *)
let is_view_column (view : Xdb_rel.Publish.view) alias e =
  let module P = Xdb_rel.Publish in
  match e with
  | Col (None, c) -> String.lowercase_ascii c = String.lowercase_ascii view.P.column
  | Col (Some a, c) ->
      String.lowercase_ascii c = String.lowercase_ascii view.P.column
      && (String.lowercase_ascii a = String.lowercase_ascii alias
         || String.lowercase_ascii a = String.lowercase_ascii view.P.view_name)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Base-table selects                                                  *)
(* ------------------------------------------------------------------ *)

let run_table_select db (tbl : T.t) (sel : select) : result =
  let alias = Option.value ~default:sel.from_name sel.from_alias in
  let scan = A.Seq_scan { table = sel.from_name; alias } in
  let filtered =
    match sel.where with None -> scan | Some w -> A.Filter (plain_expr w, scan)
  in
  let fields =
    match sel.items with
    | [ (Star, _) ] -> List.map (fun c -> (A.Col (None, c), c)) (T.column_names tbl)
    | items -> List.mapi (fun i (e, alias) -> (plain_expr e, item_name i (e, alias))) items
  in
  let plan = Xdb_rel.Optimizer.optimize_deep db (A.Project (fields, filtered)) in
  (* projected fields occupy slots 0..n-1 of the compiled layout, in order *)
  let _, rows = E.run_arrays db plan in
  {
    columns = List.map snd fields;
    rows = List.map (fun (r : V.t array) -> List.mapi (fun i _ -> r.(i)) fields) rows;
    note = Some (A.plan_sql plan);
  }

(* ------------------------------------------------------------------ *)
(* ANALYZE                                                             *)
(* ------------------------------------------------------------------ *)

let run_analyze db target : result =
  let analyzed =
    match target with
    | Some name -> (
        match Xdb_rel.Database.table_opt db name with
        | None -> err "ANALYZE: unknown table %S" name
        | Some _ -> [ (name, Xdb_rel.Analyze.table db name) ])
    | None -> Xdb_rel.Analyze.all db
  in
  {
    columns = [ "table_name"; "rows_sampled" ];
    rows = List.map (fun (n, c) -> [ V.Str n; V.Int c ]) analyzed;
    note =
      Some
        (Printf.sprintf "statistics collected for %d table(s), stats version %d"
           (List.length analyzed)
           (Xdb_rel.Database.stats_version db));
  }

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

(* coerce an evaluated value to the column's declared type, or fail the
   whole statement — called during the validation phase, before any
   mutation *)
let coerce_to_column tbl (col : T.column) v =
  match (col.T.col_type, v) with
  | _, V.Null -> V.Null
  | V.Tint, V.Int _ -> v
  | V.Tfloat, V.Float _ -> v
  | V.Tfloat, V.Int i -> V.Float (float_of_int i)
  | V.Tstr, V.Str _ -> v
  | _ ->
      err "type mismatch for %s.%s: %s value does not fit %s" tbl.T.tbl_name col.T.col_name
        (V.value_type_name v) (V.type_name col.T.col_type)

(* the note ends with the plan that picked the rows, if any *)
let dml_note ?selection db table verb n =
  Printf.sprintf "%d row(s) %s, %s data version %d%s%s" n verb table
    (Xdb_rel.Database.data_version db table)
    (if Xdb_rel.Database.stats_stale db table then " (statistics stale)" else "")
    (match selection with Some p -> "; selection: " ^ A.plan_sql p | None -> "")

let affected n note = { columns = [ "rows_affected" ]; rows = [ [ V.Int n ] ]; note = Some note }

let target_table db name =
  match Xdb_rel.Database.table_opt db name with
  | Some t -> t
  | None -> err "unknown table %S" name

(* drain a DML plan on the compiled executor, before anything mutates:
   its faults (unknown columns, division by zero, bad casts) fail the
   statement *)
let drain db plan =
  try snd (E.run_arrays db plan) with E.Exec_error m | V.Type_error m -> err "%s" m

(* the rows [where] picks, optimised like a SELECT (so a keyed predicate
   becomes an index probe): each row's id, then the [fields] *)
let selection db table where fields =
  let scan = A.Seq_scan { table; alias = table } in
  let filtered = match where with None -> scan | Some w -> A.Filter (plain_expr w, scan) in
  let rid = (A.Col (None, E.rowid_column), E.rowid_column) in
  Xdb_rel.Optimizer.optimize_deep db (A.Project (rid :: fields, filtered))

(* the row id a selection row leads with *)
let rid_of (r : V.t array) = match r.(0) with V.Int rid -> rid | _ -> assert false

let run_insert db ~table ~columns ~values : result =
  let tbl = target_table db table in
  let ncols = Array.length tbl.T.columns in
  (* phase 1: resolve positions and evaluate/coerce every row *)
  let positions =
    match columns with
    | None -> Array.init ncols (fun i -> i)
    | Some cols -> Array.of_list (List.map (col_pos tbl) cols)
  in
  let rows =
    List.map
      (fun exprs ->
        if List.length exprs <> Array.length positions then
          err "INSERT arity mismatch: %d value(s) for %d column(s)" (List.length exprs)
            (Array.length positions);
        (* constant expressions: projected over one row of no columns *)
        let fields =
          List.mapi (fun i e -> (plain_expr e, tbl.T.columns.(positions.(i)).T.col_name)) exprs
        in
        let vals = List.hd (drain db (A.Project (fields, A.Values { cols = []; rows = [ [] ] }))) in
        let row = Array.make ncols V.Null in
        Array.iteri
          (fun i pos -> row.(pos) <- coerce_to_column tbl tbl.T.columns.(pos) vals.(i))
          positions;
        row)
      values
  in
  (* phase 2: mutate *)
  List.iter (fun row -> ignore (T.insert tbl row)) rows;
  let n = List.length rows in
  if n > 0 then Xdb_rel.Database.bump_data_version db table;
  affected n (dml_note db table "inserted" n)

let run_update db ~table ~sets ~where : result =
  let tbl = target_table db table in
  (* phase 1: resolve SET columns, select rows, evaluate and coerce every
     new value — any failure leaves the table untouched *)
  let targets = List.map (fun (c, _) -> col_pos tbl c) sets in
  let plan = selection db table where (List.map (fun (c, e) -> (plain_expr e, c)) sets) in
  let pending =
    List.map
      (fun r ->
        ( rid_of r,
          List.mapi (fun i pos -> (pos, coerce_to_column tbl tbl.T.columns.(pos) r.(i + 1))) targets
        ))
      (drain db plan)
    (* in heap order whatever the access path, so B-tree entries of
       duplicate keys are re-inserted in the order a full scan gives *)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (* phase 2: mutate (index maintenance inside Table.update) *)
  List.iter (fun (rid, news) -> T.update tbl rid news) pending;
  let n = List.length pending in
  if n > 0 then
    Xdb_rel.Database.log_update db table
      ~rids:(Array.of_list (List.map fst pending))
      ~columns:(List.sort_uniq compare (List.map fst sets));
  affected n (dml_note ~selection:plan db table "updated" n)

let run_delete db ~table ~where : result =
  let tbl = target_table db table in
  let plan = selection db table where [] in
  let n = T.delete tbl (List.map rid_of (drain db plan)) in
  if n > 0 then Xdb_rel.Database.bump_data_version db table;
  affected n (dml_note ~selection:plan db table "deleted" n)

(** [run_dml db stmt] — execute one INSERT/UPDATE/DELETE.  Validation is
    two-phase: positions, arities and value types are all checked before
    the first row mutates, so a failed statement leaves the table {e and}
    its data version untouched. *)
let run_dml db (stmt : statement) : result =
  match stmt with
  | Insert { table; columns; values } -> run_insert db ~table ~columns ~values
  | Update { table; sets; where } -> run_update db ~table ~sets ~where
  | Delete { table; where } -> run_delete db ~table ~where
  | Select _ | Create_view _ | Analyze _ -> invalid_arg "run_dml: not a DML statement"

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(** Fixed-width rendering of a result for CLI/example output. *)
let render (r : result) : string =
  let buf = Buffer.create 256 in
  (match r.note with Some n -> Buffer.add_string buf ("-- " ^ n ^ "\n") | None -> ());
  if r.columns <> [] then (
    Buffer.add_string buf (String.concat " | " r.columns);
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make 40 '-');
    Buffer.add_char buf '\n';
    List.iter
      (fun row ->
        Buffer.add_string buf (String.concat " | " (List.map V.to_string row));
        Buffer.add_char buf '\n')
      r.rows);
  Buffer.contents buf
