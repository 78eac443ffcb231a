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

(* row-context evaluation of the restricted expression grammar: SET
   right-hand sides and WHERE predicates over the target table's row.
   Comparisons yield Int 1/0; NULL propagates SQL-style (a comparison
   against NULL is false, arithmetic over NULL is NULL). *)
let rec eval_row (tbl : T.t) (row : V.t array) = function
  | Col (_, c) -> row.(col_pos tbl c)
  | Str_lit s -> V.Str s
  | Int_lit i -> V.Int i
  | Null_lit -> V.Null
  | Star -> err "* is not a value"
  | Xml_transform _ | Xml_query _ -> err "XML functions are not supported in DML"
  | Binop (op, a, b) -> (
      let va = eval_row tbl row a and vb = eval_row tbl row b in
      let bool_v b = if b then V.Int 1 else V.Int 0 in
      let cmp f = bool_v (match V.compare_sql va vb with Some c -> f c | None -> false) in
      let truthy = function
        | V.Null | V.Int 0 -> false
        | V.Float f -> f <> 0.0
        | _ -> true
      in
      let arith fi ff =
        match (va, vb) with
        | V.Null, _ | _, V.Null -> V.Null
        | V.Int x, V.Int y -> V.Int (fi x y)
        | (V.Int _ | V.Float _), (V.Int _ | V.Float _) ->
            V.Float (ff (V.to_float va) (V.to_float vb))
        | _ -> err "arithmetic over non-numeric values"
      in
      match op with
      | Eq -> cmp (fun c -> c = 0)
      | Neq -> cmp (fun c -> c <> 0)
      | Lt -> cmp (fun c -> c < 0)
      | Leq -> cmp (fun c -> c <= 0)
      | Gt -> cmp (fun c -> c > 0)
      | Geq -> cmp (fun c -> c >= 0)
      | And -> bool_v (truthy va && truthy vb)
      | Or -> bool_v (truthy va || truthy vb)
      | Add -> arith ( + ) ( +. )
      | Sub -> arith ( - ) ( -. )
      | Mul -> arith ( * ) ( *. )
      | Div ->
          if (match vb with V.Int 0 -> true | V.Float 0.0 -> true | _ -> false) then
            err "division by zero"
          else arith ( / ) ( /. ))

let truthy = function
  | V.Null | V.Int 0 -> false
  | V.Float f -> f <> 0.0
  | _ -> true

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

let dml_note db table verb n =
  Printf.sprintf "%d row(s) %s, %s data version %d%s" n verb table
    (Xdb_rel.Database.data_version db table)
    (if Xdb_rel.Database.stats_stale db table then " (statistics stale)" else "")

let affected n note = { columns = [ "rows_affected" ]; rows = [ [ V.Int n ] ]; note = Some note }

let target_table db name =
  match Xdb_rel.Database.table_opt db name with
  | Some t -> t
  | None -> err "unknown table %S" name

let run_insert db ~table ~columns ~values : result =
  let tbl = target_table db table in
  let ncols = Array.length tbl.T.columns in
  (* phase 1: resolve positions and evaluate/coerce every row *)
  let positions =
    match columns with
    | None -> Array.init ncols (fun i -> i)
    | Some cols -> Array.of_list (List.map (col_pos tbl) cols)
  in
  let rec check_const = function
    | Col _ -> err "INSERT values must be constant expressions"
    | Binop (_, a, b) ->
        check_const a;
        check_const b
    | _ -> ()
  in
  let dummy = [||] in
  let rows =
    List.map
      (fun exprs ->
        if List.length exprs <> Array.length positions then
          err "INSERT arity mismatch: %d value(s) for %d column(s)" (List.length exprs)
            (Array.length positions);
        let row = Array.make ncols V.Null in
        List.iteri
          (fun i e ->
            check_const e;
            let pos = positions.(i) in
            row.(pos) <- coerce_to_column tbl tbl.T.columns.(pos) (eval_row tbl dummy e))
          exprs;
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
  let sets =
    List.map
      (fun (c, e) ->
        let pos = col_pos tbl c in
        (pos, tbl.T.columns.(pos), e))
      sets
  in
  let pending = ref [] in
  T.iter
    (fun rid row ->
      let matches = match where with None -> true | Some w -> truthy (eval_row tbl row w) in
      if matches then
        let news =
          List.map (fun (pos, col, e) -> (pos, coerce_to_column tbl col (eval_row tbl row e))) sets
        in
        pending := (rid, news) :: !pending)
    tbl;
  (* phase 2: mutate (index maintenance inside Table.update) *)
  let pending = List.rev !pending in
  List.iter (fun (rid, news) -> T.update tbl rid news) pending;
  let n = List.length pending in
  if n > 0 then Xdb_rel.Database.bump_data_version db table;
  affected n (dml_note db table "updated" n)

let run_delete db ~table ~where : result =
  let tbl = target_table db table in
  let rids = ref [] in
  T.iter
    (fun rid row ->
      let matches = match where with None -> true | Some w -> truthy (eval_row tbl row w) in
      if matches then rids := rid :: !rids)
    tbl;
  let n = T.delete tbl (List.rev !rids) in
  if n > 0 then Xdb_rel.Database.bump_data_version db table;
  affected n (dml_note db table "deleted" n)

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
