(** XQuery → SQL/XML rewrite over a published XMLType view (the paper's
    second rewrite stage, after XSLT→XQuery: §2.1, Tables 7 and 11; the
    technique of [3, 4] the paper builds on).

    Given a query whose context item is one document of a
    {!Xdb_rel.Publish.view}, produce a relational expression over the view's
    base tables that constructs the same result with SQL/XML publishing
    operators — never materialising the input document.  Path steps resolve
    statically into the publishing spec; crossing an [XMLAgg] introduces a
    correlated subquery over the detail table; XPath value predicates
    become relational predicates the optimiser can turn into B-tree
    probes.

    Anything outside the supported fragment raises {!Not_rewritable}; the
    pipeline then falls back to dynamic XQuery evaluation over the
    materialised document (functionally correct, no longer index-driven). *)

module A = Xdb_rel.Algebra
module P = Xdb_rel.Publish
module V = Xdb_rel.Value
module XP = Xdb_xpath.Ast
open Ast

exception Not_rewritable of string

let fail fmt = Printf.ksprintf (fun m -> raise (Not_rewritable m)) fmt

module Smap = Map.Make (String)

(* Plan parameters.  A stylesheet shape ({!Xdb_core.Registry}) is
   compiled with its literal slots as the reserved variables
   [$xdb-p0], [$xdb-p1], …; the rewrite turns a reference to one into
   [A.Param i]. *)
let param_prefix = "xdb-p"

let param_var i = param_prefix ^ string_of_int i

let param_of_var v =
  let n = String.length param_prefix in
  if String.length v > n && String.sub v 0 n = param_prefix then
    int_of_string_opt (String.sub v n (String.length v - n))
  else None

(** An [XMLAgg] layer crossed during navigation but not yet turned into a
    subquery by a [for] clause. *)
type layer = {
  table : string;
  alias : string;
  parent_alias : string;  (** scope whose columns the correlation references *)
  correlate : (string * string) list;
  mutable where : A.expr list;  (** accumulated sargable predicates *)
  order_by : (string * A.order_dir) list;
}

type loc = {
  spec : P.spec;  (** an [Elem] (or the synthetic document wrapper) *)
  pending : layer list;  (** agg layers crossed, outermost first *)
  scope_alias : string;  (** alias providing this spec's columns *)
}

type binding = Loc of loc | Sql of A.expr

(* [ty alias column]: the column's SQL type, when the view's tables
   declare it *)
type env = { view : P.view; vars : binding Smap.t; ty : string -> string -> V.column_type option }

let root_loc view =
  {
    spec = P.Elem { name = "#doc"; attrs = []; content = [ view.P.spec ] };
    pending = [];
    scope_alias = view.P.base_alias;
  }

(* ------------------------------------------------------------------ *)
(* XPath predicate → SQL over the columns of an element spec            *)
(* ------------------------------------------------------------------ *)

(* scalar column reachable by a child-name path inside [spec] *)
let rec scalar_of_path spec alias (steps : XP.step list) : A.expr =
  match steps with
  | [] -> (
      match P.scalar_column spec with
      | Some c -> A.Col (Some alias, c)
      | None -> fail "element %s has no scalar content"
                  (Option.value ~default:"?" (P.spec_elem_name spec)))
  | { XP.axis = XP.Child; test = XP.Name_test (_, name); predicates = [] } :: rest -> (
      match P.navigate spec name with
      | Some (P.Elem _ as child) -> scalar_of_path child alias rest
      | Some (P.Agg _) -> fail "cannot use unbounded child %s as a scalar" name
      | _ -> fail "no child element %s in the publishing spec" name)
  | { XP.axis = XP.Self; predicates = []; _ } :: rest -> scalar_of_path spec alias rest
  | _ -> fail "unsupported step inside a value predicate"

let xpath_atom spec alias (e : XP.expr) : A.expr =
  match e with
  | XP.Literal s -> A.Const (V.Str s)
  | XP.Number f ->
      if Float.is_integer f then A.Const (V.Int (int_of_float f)) else A.Const (V.Float f)
  | XP.Var v when param_of_var v <> None -> A.Param (Option.get (param_of_var v))
  | XP.Path p when not p.XP.absolute -> scalar_of_path spec alias p.XP.steps
  | XP.Call ("string", [ XP.Path p ]) when not p.XP.absolute ->
      scalar_of_path spec alias p.XP.steps
  | XP.Call ("number", [ XP.Path p ]) when not p.XP.absolute ->
      scalar_of_path spec alias p.XP.steps
  | _ -> fail "unsupported operand in a value predicate"

let sql_cmp : XP.binop -> A.binop = function
  | XP.Eq -> A.Eq
  | XP.Neq -> A.Neq
  | XP.Lt -> A.Lt
  | XP.Leq -> A.Leq
  | XP.Gt -> A.Gt
  | XP.Geq -> A.Geq
  | _ -> fail "unsupported operator in a value predicate"

(* XPath 1.0 §3.4 where a string column meets a literal or a number, or
   a numeric column a string literal, instead of SQL's casts: ordering
   comparisons and comparisons with a number compare numbers, the number
   of a non-numeric string being NaN (only [!=] holds on it); [=]/[!=]
   compare text, which a numeric column can only equal in a literal's
   canonical form.  Number-vs-number plans stay as they are. *)
let compare_typed ty (op : A.binop) (a : A.expr) (b : A.expr) : A.expr =
  let ordering = match op with A.Lt | A.Leq | A.Gt | A.Geq -> true | _ -> false in
  let cls = function
    | A.Const (V.Str s) -> `Lit s
    | A.Const (V.Int _ | V.Float _)
    | A.Param _
    | A.Binop ((A.Add | A.Sub | A.Mul | A.Div | A.Fdiv | A.Mod), _, _) ->
        `Num
    | A.Col (Some al, c) -> (
        match ty al c with Some V.Tstr -> `Str_col | Some (V.Tint | V.Tfloat) -> `Num_col | _ -> `Other)
    | _ -> `Other
  in
  let num_lit s = A.Const (V.Float (Xdb_xpath.Value.number_of_string s)) in
  let canonical s =
    let f = Xdb_xpath.Value.number_of_string s in
    (not (Float.is_nan f)) && String.equal (Xdb_xpath.Value.string_of_number f) s
  in
  let side x other =
    match (cls x, cls other) with
    | `Str_col, (`Num | `Num_col) -> A.Fn ("xpath_number", [ x ])
    | `Str_col, (`Lit _ | `Str_col) when ordering -> A.Fn ("xpath_number", [ x ])
    | `Lit s, `Str_col when ordering -> num_lit s
    | `Lit s, `Num_col when not (canonical s) ->
        if ordering then num_lit s else A.Const (V.Float Float.nan)
    | _ -> x
  in
  A.Binop (op, side a b, side b a)

let rec xpath_pred_to_sql ty spec alias (e : XP.expr) : A.expr =
  match e with
  | XP.Binop (XP.And, a, b) ->
      A.Binop (A.And, xpath_pred_to_sql ty spec alias a, xpath_pred_to_sql ty spec alias b)
  | XP.Binop (XP.Or, a, b) ->
      A.Binop (A.Or, xpath_pred_to_sql ty spec alias a, xpath_pred_to_sql ty spec alias b)
  | XP.Binop (op, a, b) ->
      compare_typed ty (sql_cmp op) (xpath_atom spec alias a) (xpath_atom spec alias b)
  | XP.Call ("not", [ inner ]) -> A.Not (xpath_pred_to_sql ty spec alias inner)
  | XP.Path p when not p.XP.absolute ->
      (* existence of a scalar child: the spec publishes it even when its
         column is NULL (then empty) *)
      ignore (scalar_of_path spec alias p.XP.steps);
      A.Const (V.Int 1)
  | _ -> fail "unsupported predicate form"

(* ------------------------------------------------------------------ *)
(* Navigation                                                          *)
(* ------------------------------------------------------------------ *)

let navigate_child ty (l : loc) (step : XP.step) : loc =
  let name =
    match step.XP.test with
    | XP.Name_test (_, n) -> n
    | _ -> fail "only name tests are supported in rewritable paths"
  in
  (match step.XP.axis with
  | XP.Child -> ()
  | a -> fail "axis %s is not rewritable" (XP.axis_name a));
  match P.navigate l.spec name with
  | Some (P.Elem _ as child) ->
      if step.XP.predicates <> [] then fail "predicate on a singleton element";
      { l with spec = child }
  | Some (P.Agg a) ->
      let layer =
        {
          table = a.table;
          alias = a.alias;
          parent_alias = l.scope_alias;
          correlate = a.correlate;
          where =
            (match a.where with Some w -> [ w ] | None -> [])
            @ List.map (fun p -> xpath_pred_to_sql ty a.body a.alias p) step.XP.predicates;
          order_by = a.order_by;
        }
      in
      { spec = a.body; pending = l.pending @ [ layer ]; scope_alias = a.alias }
  | Some _ | None -> fail "no child element %s in the publishing spec" name

(* plan over a chain of crossed layers: nested-loop joins in document order *)
let rec layers_plan = function
  | [] -> invalid_arg "layers_plan: empty"
  | [ l ] -> layer_plan l
  | l :: rest ->
      List.fold_left
        (fun acc next -> A.Nested_loop { outer = acc; inner = layer_plan next; join_cond = None })
        (layer_plan l) rest

and layer_plan (layer : layer) : A.plan =
  let corr =
    List.map
      (fun (inner, outer) ->
        A.Binop (A.Eq, A.Col (Some layer.alias, inner), A.Col (Some layer.parent_alias, outer)))
      layer.correlate
  in
  let conds = corr @ layer.where in
  let scan = A.Seq_scan { table = layer.table; alias = layer.alias } in
  match conds with
  | [] -> scan
  | c :: rest -> A.Filter (List.fold_left (fun acc x -> A.Binop (A.And, acc, x)) c rest, scan)

(* ------------------------------------------------------------------ *)
(* Expression translation                                              *)
(* ------------------------------------------------------------------ *)

let rec resolve env (e : expr) : binding =
  match e with
  | Var v -> (
      match (Smap.find_opt v env.vars, param_of_var v) with
      | Some b, _ -> b
      | None, Some i -> Sql (A.Param i)
      | None, None -> fail "unbound variable $%s" v)
  | Context_item | Root -> Loc (root_loc env.view)
  | Path (base, steps) -> (
      match resolve env base with
      | Loc l -> Loc (List.fold_left (navigate_child env.ty) l steps)
      | Sql _ -> fail "cannot navigate into a computed value")
  | Seq [ e ] -> resolve env e
  | e -> Sql (tr env e)

and loc_of env e =
  match resolve env e with
  | Loc l -> l
  | Sql _ -> fail "expected a node location"

(* scalar translation: a single atomic value *)
and tr_scalar env (e : expr) : A.expr =
  match e with
  | Literal (Str s) -> A.Const (V.Str s)
  | Literal (Num f) ->
      if Float.is_integer f then A.Const (V.Int (int_of_float f)) else A.Const (V.Float f)
  | Literal (Bool b) -> A.Const (V.Int (if b then 1 else 0))
  | Fn_call ("string", [ arg ]) | Fn_call ("data", [ arg ]) -> tr_scalar env arg
  | Comp_text inner -> tr_scalar env inner
  | Seq [ single ] -> tr_scalar env single
  | Seq pieces -> A.Fn ("concat", List.map (tr_scalar env) pieces)
  | Fn_call ("concat", args) -> A.Fn ("concat", List.map (tr_scalar env) args)
  | Fn_call ("number", [ arg ]) -> (
      (* XPath number(): NaN for a string that is not a number *)
      match tr_scalar env arg with
      | A.Const (V.Str s) -> A.Const (V.Float (Xdb_xpath.Value.number_of_string s))
      | A.Col (Some al, c) as x when env.ty al c <> Some V.Tstr -> x
      | (A.Const (V.Int _ | V.Float _) | A.Param _) as x -> x
      | x -> A.Fn ("xpath_number", [ x ]))
  | Fn_call (("count" | "sum" | "avg" | "min" | "max"), _) -> tr_agg env e
  | Fn_call (("round" | "floor" | "ceiling") as f, [ arg ]) -> A.Fn (f, [ tr_scalar env arg ])
  | Binop ((XP.Plus | XP.Minus | XP.Mul | XP.Div | XP.Mod) as op, a, b) ->
      let sql_op =
        match op with
        | XP.Plus -> A.Add
        | XP.Minus -> A.Sub
        | XP.Mul -> A.Mul
        | XP.Div -> A.Fdiv
        | XP.Mod -> A.Mod
        | _ -> assert false
      in
      A.Binop (sql_op, tr_scalar env a, tr_scalar env b)
  | Var _ | Context_item | Path _ -> (
      match resolve env e with
      | Sql sql -> sql
      | Loc l -> (
          if l.pending <> [] then fail "cannot take the scalar value of an unbounded path";
          match P.scalar_column l.spec with
          | Some c -> A.Col (Some l.scope_alias, c)
          | None -> fail "element has no scalar column"))
  | If (c, t, f) -> A.Case ([ (tr_cond env c, tr_scalar env t) ], Some (tr_scalar env f))
  | e -> fail "unsupported scalar expression (%s)" (summary e)

(* aggregate functions over an unbounded path; a NULL column publishes
   an empty element, and XPath's sum() over one is NaN where SQL's SUM
   would skip it *)
and tr_agg env (e : expr) : A.expr =
  let nan_if_null col = A.Case ([ (A.Is_null col, A.Const (V.Float Float.nan)) ], Some col) in
  match e with
  | Fn_call (fname, [ arg ]) -> (
      let l = loc_of env arg in
      match l.pending with
      | _ :: _ as layers ->
          let innermost = List.nth layers (List.length layers - 1) in
          let agg =
            match fname with
            | "count" -> A.Count_star
            | "sum" | "avg" | "min" | "max" -> (
                match P.scalar_column l.spec with
                | Some c ->
                    let col = A.Col (Some innermost.alias, c) in
                    (match fname with
                    | "sum" -> A.Sum (nan_if_null col)
                    | "avg" -> A.Avg col
                    | "min" -> A.Min col
                    | _ -> A.Max col)
                | None -> fail "fn:%s over a non-scalar path" fname)
            | f -> fail "unsupported aggregate fn:%s" f
          in
          let sub =
            A.Scalar_subquery
              (A.Aggregate { group_by = []; aggs = [ (agg, "agg") ]; input = layers_plan layers })
          in
          (* SQL's SUM of no rows is NULL; fn:sum of an empty sequence is 0 *)
          if fname = "sum" then A.Fn ("coalesce", [ sub; A.Const (V.Int 0) ]) else sub
      | [] -> (
          (* aggregate over a singleton: the spec publishes its element
             whether or not the column is NULL (then empty), so count=1
             and sum=number(string value), NaN for a NULL *)
          match P.scalar_column l.spec with
          | Some c -> (
              let col = A.Col (Some l.scope_alias, c) in
              match fname with
              | "count" -> A.Const (V.Int 1)
              | "sum" ->
                  nan_if_null
                    (if env.ty l.scope_alias c = Some V.Tstr then A.Fn ("xpath_number", [ col ])
                     else col)
              | _ -> col)
          | None -> fail "aggregate over an element with no scalar column"))
  | _ -> fail "malformed aggregate call"

(* boolean translation *)
and tr_cond env (e : expr) : A.expr =
  match e with
  | Binop (XP.And, a, b) -> A.Binop (A.And, tr_cond env a, tr_cond env b)
  | Binop (XP.Or, a, b) -> A.Binop (A.Or, tr_cond env a, tr_cond env b)
  | Binop ((XP.Eq | XP.Neq | XP.Lt | XP.Leq | XP.Gt | XP.Geq) as op, a, b) ->
      compare_typed env.ty (sql_cmp op) (tr_scalar env a) (tr_scalar env b)
  | Fn_call ("not", [ inner ]) -> A.Not (tr_cond env inner)
  | Fn_call (("exists" | "boolean"), [ arg ]) | arg -> (
      match resolve env arg with
      | Sql sql -> sql
      | Loc l -> (
          match l.pending with
          | [ layer ] -> A.Exists (layer_plan layer)
          | [] -> A.Const (V.Int 1) (* published even when its column is NULL *)
          | _ -> fail "existence test across nested collections"))

(* content translation: any expression producing XML content *)
and tr env (e : expr) : A.expr =
  match e with
  | Seq es -> A.Xml_concat (List.map (tr env) es)
  | Literal (Str s) -> A.Const (V.Str s)
  | Literal (Num f) ->
      A.Const (V.Str (Xdb_xpath.Value.string_of_number f))
  | Literal (Bool b) -> A.Const (V.Str (if b then "true" else "false"))
  | Comp_text inner -> A.Xml_text (tr_scalar env inner)
  | Comp_comment inner -> A.Xml_comment (tr_scalar env inner)
  | Direct_elem (name, attrs, content) ->
      let attr_expr (an, pieces) =
        let piece = function
          | Attr_str s -> A.Const (V.Str s)
          | Attr_expr e -> tr_scalar env e
        in
        match pieces with
        | [ p ] -> (an, piece p)
        | ps -> (an, A.Fn ("concat", List.map piece ps))
      in
      (* xsl:attribute constructors appearing as leading content become
         attributes of the element *)
      let rec split_attrs acc = function
        | Comp_attr (an, e) :: rest -> split_attrs ((an, tr_scalar env e) :: acc) rest
        | Seq es :: rest -> split_attrs acc (es @ rest)
        | content -> (List.rev acc, content)
      in
      let comp_attrs, content = split_attrs [] content in
      A.Xml_element
        (name, List.map attr_expr attrs @ comp_attrs, List.map (tr env) content)
  | Comp_elem (Literal (Str name), content) -> A.Xml_element (name, [], [ tr env content ])
  | Comp_elem _ -> fail "computed element names are not rewritable"
  | Comp_attr _ -> fail "attribute constructors outside elements are not rewritable"
  | If (c, t, f) ->
      A.Case ([ (tr_cond env c, tr env t) ], Some (tr env f))
  | Fn_call (("string" | "concat" | "data" | "number"), _)
  | Binop ((XP.Plus | XP.Minus | XP.Mul | XP.Div | XP.Mod), _, _) ->
      tr_scalar env e
  | Fn_call (("count" | "sum" | "avg" | "min" | "max"), _) -> tr_agg env e
  | Fn_call ("string-join", [ arg; Literal (Str sep) ]) -> (
      (* built-in-template-only compaction: string-join over text values *)
      match resolve env arg with
      | Loc l -> (
          match l.pending with
          | [ layer ] -> (
              match P.scalar_column l.spec with
              | Some c ->
                  A.Scalar_subquery
                    (A.Aggregate
                       {
                         group_by = [];
                         aggs = [ (A.String_agg (A.Col (Some layer.alias, c), sep), "agg") ];
                         input = layer_plan layer;
                       })
              | None -> fail "string-join over a non-scalar path")
          | _ -> fail "string-join over this path shape is not supported")
      | Sql _ -> fail "string-join over a computed sequence")
  | Flwor (clauses, ret) -> tr_flwor env clauses ret
  | Var _ | Context_item | Path _ -> (
      match resolve env e with
      | Sql sql -> sql
      | Loc l -> (
          match l.pending with
          | [] ->
              (* copy of the published element: re-publish it *)
              publish_spec env l.spec l.scope_alias
          | layers ->
              (* copy-of an unbounded path: aggregate the republication in
                 document order (the publishing specs' order keys) *)
              let innermost = List.nth layers (List.length layers - 1) in
              let order =
                List.concat_map
                  (fun (ly : layer) ->
                    List.map (fun (c, d) -> (A.Col (Some ly.alias, c), d)) ly.order_by)
                  layers
              in
              A.Scalar_subquery
                (A.Aggregate
                   {
                     group_by = [];
                     aggs =
                       [ (A.Xml_agg (publish_spec env l.spec innermost.alias, order), "result") ];
                     input = layers_plan layers;
                   })))
  | e -> fail "unsupported content expression (%s)" (summary e)

and tr_flwor env clauses ret : A.expr =
  match clauses with
  | [] -> tr env ret
  | Let { var; value } :: rest ->
      let env = { env with vars = Smap.add var (resolve env value) env.vars } in
      tr_flwor env rest ret
  | Where w :: rest ->
      A.Case ([ (tr_cond env w, tr_flwor env rest ret) ], None)
  | Order_by _ :: _ -> fail "order by outside a for clause is not supported"
  | For { var; pos_var; source } :: rest -> (
      if pos_var <> None then fail "positional variables are not rewritable";
      let l = loc_of env source in
      match l.pending with
      | _ :: _ as layers ->
          let layer = List.nth layers (List.length layers - 1) in
          let env' =
            { env with
              vars = Smap.add var (Loc { spec = l.spec; pending = []; scope_alias = layer.alias }) env.vars }
          in
          (* hoist immediately-following where/order-by into the subquery *)
          let rec hoist rest (wheres, order) =
            match rest with
            | Where w :: more -> (
                match try Some (xquery_where_to_sql env' var l.spec layer w) with Not_rewritable _ -> None with
                | Some sql -> hoist more (wheres @ [ sql ], order)
                | None -> (wheres, order, rest))
            | Order_by keys :: more -> (
                match try Some (order_keys env' l.spec layer keys) with Not_rewritable _ -> None with
                | Some ks -> hoist more (wheres, order @ ks)
                | None -> (wheres, order, rest))
            | _ -> (wheres, order, rest)
          and xquery_where_to_sql env _var _spec _layer w = tr_cond env w
          and order_keys env spec layer keys =
            let rec key_col k =
              match k with
              | Fn_call (("string" | "number"), [ inner ]) -> key_col inner
              | Path (Var _, steps) | Path (Context_item, steps) ->
                  scalar_of_path spec layer.alias steps
              | Var _ | Context_item -> (
                  match P.scalar_column spec with
                  | Some c -> A.Col (Some layer.alias, c)
                  | None -> fail "sort key has no scalar column")
              | _ -> fail "unsupported sort key"
            in
            ignore env;
            List.map (fun (k, desc) -> (key_col k, if desc then A.Desc else A.Asc)) keys
          in
          let wheres, order, rest = hoist rest ([], []) in
          layer.where <- layer.where @ wheres;
          let spec_order =
            order
            @ List.concat_map
                (fun (ly : layer) ->
                  List.map (fun (c, d) -> (A.Col (Some ly.alias, c), d)) ly.order_by)
                layers
          in
          let body = tr_flwor env' rest ret in
          A.Scalar_subquery
            (A.Aggregate
               {
                 group_by = [];
                 aggs = [ (A.Xml_agg (body, spec_order), "result") ];
                 input = layers_plan layers;
               })
      | [] ->
          (* iteration over a singleton element: just bind it *)
          let env = { env with vars = Smap.add var (Loc l) env.vars } in
          tr_flwor env rest ret
      )

(* re-publish a located subtree (deep copy of published content) *)
and publish_spec env (spec : P.spec) alias : A.expr =
  match spec with
  | P.Text_const s -> A.Const (V.Str s)
  | P.Text_col c -> A.Xml_text (A.Col (Some alias, c))
  | P.Text_expr e -> A.Xml_text e
  | P.Elem { name; attrs; content } ->
      A.Xml_element (name, attrs, List.map (fun c -> publish_spec env c alias) content)
  | P.Agg a ->
      let layer =
        {
          table = a.table;
          alias = a.alias;
          parent_alias = alias;
          correlate = a.correlate;
          where = (match a.where with Some w -> [ w ] | None -> []);
          order_by = a.order_by;
        }
      in
      let order = List.map (fun (c, d) -> (A.Col (Some a.alias, c), d)) a.order_by in
      A.Scalar_subquery
        (A.Aggregate
           {
             group_by = [];
             aggs = [ (A.Xml_agg (publish_spec env a.body a.alias, order), "result") ];
             input = layer_plan layer;
           })

and summary = function
  | Flwor _ -> "FLWOR"
  | Direct_elem (n, _, _) -> "<" ^ n ^ ">"
  | Fn_call (f, _) -> "fn:" ^ f
  | User_call (f, _) -> "local:" ^ f
  | Instance_of _ -> "instance of"
  | Path _ -> "path"
  | Var v -> "$" ^ v
  | _ -> "expr"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** [rewrite_prog view prog] — the per-row SQL/XML expression equivalent to
    running [prog] with one view document as context item. *)
let rewrite_prog db (view : P.view) (p : prog) : A.expr =
  if p.funs <> [] then fail "queries with user functions (non-inline mode) are not rewritable";
  (* every alias the view scans, with its table *)
  let rec aliases acc = function
    | P.Elem { content; _ } -> List.fold_left aliases acc content
    | P.Agg { table; alias; body; _ } -> aliases ((alias, table) :: acc) body
    | P.Text_col _ | P.Text_expr _ | P.Text_const _ -> acc
  in
  let tables = aliases [ (view.P.base_alias, view.P.base_table) ] view.P.spec in
  let ty alias col =
    Option.bind (Option.bind (List.assoc_opt alias tables) (Xdb_rel.Database.table_opt db)) (fun t ->
        Array.find_map
          (fun (c : Xdb_rel.Table.column) -> if c.col_name = col then Some c.col_type else None)
          t.Xdb_rel.Table.columns)
  in
  let env = { view; vars = Smap.empty; ty } in
  let env =
    List.fold_left
      (fun env (v, e) -> { env with vars = Smap.add v (resolve env e) env.vars })
      env p.var_decls
  in
  tr env p.body

(** [view_plan db view prog] — the relational plan producing one
    [result] XML column per base-table row, before optimisation. *)
let view_plan db (view : P.view) (p : prog) : A.plan =
  let result = rewrite_prog db view p in
  A.Project
    ([ (result, "result") ], A.Seq_scan { table = view.P.base_table; alias = view.P.base_alias })

(** [rewrite_view_plan ?timer db view prog] — {!view_plan}, optimised
    (index selection on the pushed-down predicates).  [timer] wraps each
    optimiser pass for per-pass planning-time metrics. *)
let rewrite_view_plan ?timer db (view : P.view) (p : prog) : A.plan =
  Xdb_rel.Optimizer.optimize_deep ?timer db (view_plan db view p)
