(** Relational algebra: scalar expressions (including the SQL/XML publishing
    functions) and physical plan operators (Volcano-style).

    Plans are built programmatically — by hand in examples/tests and by the
    XQuery→SQL/XML rewriter (paper §2.1, Tables 7/11).  Column references
    are name-based ([alias.column] or bare [column]) and resolved against
    the runtime row environment. *)

type order_dir = Asc | Desc

type expr =
  | Const of Value.t
  | Param of int
      (** plan parameter [i]: an integer literal of a stylesheet shape.
          The optimiser treats it as a [Const] whose value the cost model
          reads through a {!Cost.binding}; {!bind_params} replaces it by
          a [Const] before the plan runs *)
  | Col of string option * string  (** optional table alias, column name *)
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr
  | Fn of string * expr list
      (** scalar functions: concat, upper, lower, abs, mod, length *)
  | Case of (expr * expr) list * expr option
  | Xml_element of string * (string * expr) list * expr list
      (** [XMLElement(name, XMLAttributes(...), children...)] *)
  | Xml_forest of (string * expr) list  (** [XMLForest(expr AS name, ...)] *)
  | Xml_concat of expr list
  | Xml_text of expr  (** text node from a scalar *)
  | Xml_comment of expr
  | Xml_pi of string * expr
  | Scalar_subquery of plan
      (** correlated scalar subquery: first column of the first row *)
  | Exists of plan

and binop =
  | Add
  | Sub
  | Mul
  | Div
  | Fdiv  (** float division — XPath/XQuery [div] semantics *)
  | Mod
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | And
  | Or
  | Concat  (** SQL [||] *)

and agg =
  | Count_star
  | Count of expr
  | Sum of expr
  | Min of expr
  | Max of expr
  | Avg of expr
  | Xml_agg of expr * (expr * order_dir) list  (** [XMLAgg(e ORDER BY ...)] *)
  | String_agg of expr * string

and bound = Unbounded | Incl of expr | Excl of expr

and join_kind = Inner | Left_outer | Semi | Anti

and plan =
  | Seq_scan of { table : string; alias : string }
  | Index_scan of {
      table : string;
      alias : string;
      index_column : string;
      lo : bound;
      hi : bound;
    }  (** B-tree range/point access path *)
  | Filter of expr * plan
  | Project of (expr * string) list * plan
  | Nested_loop of { outer : plan; inner : plan; join_cond : expr option }
  | Hash_join of {
      outer : plan;  (** probe side, streamed in batches *)
      inner : plan;  (** build side, hashed once per open *)
      keys : (expr * expr) list;  (** (probe-side key, build-side key) pairs *)
      kind : join_kind;
    }
      (** Set-oriented equi-join.  [Inner]/[Left_outer] rows are the build
          row's own columns followed by the probe row ([irow @ orow] — the
          {!Nested_loop} binding order); [Semi]/[Anti] emit probe rows
          only.  NULL keys never match (SQL three-valued equality), so an
          [Anti] join keeps NULL-key probe rows — NOT EXISTS semantics. *)
  | Aggregate of {
      group_by : (expr * string) list;
      aggs : (agg * string) list;
      input : plan;
    }
  | Sort of (expr * order_dir) list * plan
  | Limit of int * plan
  | Values of { cols : string list; rows : Value.t list list }

(* ------------------------------------------------------------------ *)
(* Pretty-printing: SQL-like EXPLAIN text used to reproduce the shape  *)
(* of paper Tables 7 and 11.                                           *)
(* ------------------------------------------------------------------ *)

let binop_sql = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Fdiv -> "/"
  | Mod -> "%"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="
  | And -> "AND"
  | Or -> "OR"
  | Concat -> "||"

let rec expr_sql = function
  | Const v -> Value.show v
  | Param i -> Printf.sprintf ":p%d" i
  | Col (None, c) -> c
  | Col (Some a, c) -> a ^ "." ^ c
  | Binop (op, a, b) -> Printf.sprintf "%s %s %s" (expr_sql a) (binop_sql op) (expr_sql b)
  | Not e -> "NOT (" ^ expr_sql e ^ ")"
  | Is_null e -> expr_sql e ^ " IS NULL"
  | Fn (f, args) -> f ^ "(" ^ String.concat ", " (List.map expr_sql args) ^ ")"
  | Case (whens, els) ->
      "CASE "
      ^ String.concat " "
          (List.map (fun (c, r) -> "WHEN " ^ expr_sql c ^ " THEN " ^ expr_sql r) whens)
      ^ (match els with None -> "" | Some e -> " ELSE " ^ expr_sql e)
      ^ " END"
  | Xml_element (name, attrs, kids) ->
      let attrs_sql =
        if attrs = [] then ""
        else
          ", XMLAttributes("
          ^ String.concat ", " (List.map (fun (n, e) -> expr_sql e ^ " AS \"" ^ n ^ "\"") attrs)
          ^ ")"
      in
      let kids_sql = if kids = [] then "" else ", " ^ String.concat ", " (List.map expr_sql kids) in
      Printf.sprintf "XMLElement(\"%s\"%s%s)" name attrs_sql kids_sql
  | Xml_forest fields ->
      "XMLForest("
      ^ String.concat ", " (List.map (fun (n, e) -> expr_sql e ^ " AS \"" ^ n ^ "\"") fields)
      ^ ")"
  | Xml_concat es -> "XMLConcat(" ^ String.concat ", " (List.map expr_sql es) ^ ")"
  | Xml_text e -> "XMLText(" ^ expr_sql e ^ ")"
  | Xml_comment e -> "XMLComment(" ^ expr_sql e ^ ")"
  | Xml_pi (t, e) -> Printf.sprintf "XMLPI(\"%s\", %s)" t (expr_sql e)
  | Scalar_subquery p -> "(" ^ plan_sql p ^ ")"
  | Exists p -> "EXISTS (" ^ plan_sql p ^ ")"

and agg_sql = function
  | Count_star -> "COUNT(*)"
  | Count e -> "COUNT(" ^ expr_sql e ^ ")"
  | Sum e -> "SUM(" ^ expr_sql e ^ ")"
  | Min e -> "MIN(" ^ expr_sql e ^ ")"
  | Max e -> "MAX(" ^ expr_sql e ^ ")"
  | Avg e -> "AVG(" ^ expr_sql e ^ ")"
  | Xml_agg (e, []) -> "XMLAgg(" ^ expr_sql e ^ ")"
  | Xml_agg (e, order) ->
      "XMLAgg(" ^ expr_sql e ^ " ORDER BY "
      ^ String.concat ", "
          (List.map
             (fun (k, d) -> expr_sql k ^ match d with Asc -> "" | Desc -> " DESC")
             order)
      ^ ")"
  | String_agg (e, sep) -> Printf.sprintf "STRING_AGG(%s, '%s')" (expr_sql e) sep

and join_kind_sql = function
  | Inner -> ""
  | Left_outer -> "LEFT OUTER "
  | Semi -> "SEMI "
  | Anti -> "ANTI "

and hash_keys_sql keys =
  String.concat " AND "
    (List.map (fun (ok, ik) -> expr_sql ok ^ " = " ^ expr_sql ik) keys)

and plan_sql = function
  | Seq_scan { table; alias } ->
      if table = alias then "SELECT * FROM " ^ table
      else Printf.sprintf "SELECT * FROM %s %s" table alias
  | Index_scan { table; alias; index_column; lo; hi } ->
      let b = function
        | Unbounded -> "*"
        | Incl e -> "[" ^ expr_sql e
        | Excl e -> "(" ^ expr_sql e
      in
      Printf.sprintf "INDEX SCAN %s %s ON %s RANGE %s .. %s" table alias index_column (b lo)
        (b hi)
  | Filter (cond, input) -> plan_sql input ^ " WHERE " ^ expr_sql cond
  | Project (fields, input) ->
      "SELECT "
      ^ String.concat ", " (List.map (fun (e, n) -> expr_sql e ^ " AS " ^ n) fields)
      ^ " FROM (" ^ plan_sql input ^ ")"
  | Nested_loop { outer; inner; join_cond } ->
      Printf.sprintf "(%s) JOIN (%s)%s" (plan_sql outer) (plan_sql inner)
        (match join_cond with None -> "" | Some c -> " ON " ^ expr_sql c)
  | Hash_join { outer; inner; keys; kind } ->
      Printf.sprintf "(%s) %sHASH JOIN (%s) ON %s" (plan_sql outer) (join_kind_sql kind)
        (plan_sql inner) (hash_keys_sql keys)
  | Aggregate { group_by; aggs; input } ->
      "SELECT "
      ^ String.concat ", "
          (List.map (fun (e, n) -> expr_sql e ^ " AS " ^ n) group_by
          @ List.map (fun (a, n) -> agg_sql a ^ " AS " ^ n) aggs)
      ^ " FROM (" ^ plan_sql input ^ ")"
      ^
      if group_by = [] then ""
      else " GROUP BY " ^ String.concat ", " (List.map (fun (e, _) -> expr_sql e) group_by)
  | Sort (keys, input) ->
      plan_sql input ^ " ORDER BY "
      ^ String.concat ", "
          (List.map (fun (k, d) -> expr_sql k ^ match d with Asc -> "" | Desc -> " DESC") keys)
  | Limit (n, input) -> plan_sql input ^ Printf.sprintf " LIMIT %d" n
  | Values { cols; rows } ->
      Printf.sprintf "VALUES[%s](%d rows)" (String.concat "," cols) (List.length rows)

let join_kind_name = function
  | Inner -> "inner"
  | Left_outer -> "left_outer"
  | Semi -> "semi"
  | Anti -> "anti"

(** Plans nested in an expression (correlated subqueries). *)
let rec subplans_of_expr = function
  | Scalar_subquery p | Exists p -> [ p ]
  | Binop (_, a, b) -> subplans_of_expr a @ subplans_of_expr b
  | Not e | Is_null e | Xml_text e | Xml_comment e | Xml_pi (_, e) -> subplans_of_expr e
  | Fn (_, args) | Xml_concat args -> List.concat_map subplans_of_expr args
  | Case (whens, els) ->
      List.concat_map (fun (c, r) -> subplans_of_expr c @ subplans_of_expr r) whens
      @ (match els with None -> [] | Some e -> subplans_of_expr e)
  | Xml_element (_, attrs, kids) ->
      List.concat_map (fun (_, e) -> subplans_of_expr e) attrs
      @ List.concat_map subplans_of_expr kids
  | Xml_forest fs -> List.concat_map (fun (_, e) -> subplans_of_expr e) fs
  | Const _ | Param _ | Col _ -> []

let subplans_of_agg = function
  | Xml_agg (e, order) ->
      subplans_of_expr e @ List.concat_map (fun (k, _) -> subplans_of_expr k) order
  | Count e | Sum e | Min e | Max e | Avg e | String_agg (e, _) -> subplans_of_expr e
  | Count_star -> []

(* the walk behind [iter], below *)
let rec walk ~skip ~plan ~expr p =
  plan p;
  match p with
  | Seq_scan _ | Values _ -> ()
  | Index_scan { lo; hi; _ } ->
      iter_bound ~skip ~plan ~expr lo;
      iter_bound ~skip ~plan ~expr hi
  | Filter (e, i) ->
      iter_expr ~skip ~plan ~expr e;
      walk ~skip ~plan ~expr i
  | Project (fs, i) ->
      iter_named ~skip ~plan ~expr fs;
      walk ~skip ~plan ~expr i
  | Nested_loop { outer; inner; join_cond } ->
      iter_opt ~skip ~plan ~expr join_cond;
      walk ~skip ~plan ~expr outer;
      walk ~skip ~plan ~expr inner
  | Hash_join { outer; inner; keys; _ } ->
      iter_pairs ~skip ~plan ~expr keys;
      walk ~skip ~plan ~expr outer;
      walk ~skip ~plan ~expr inner
  | Aggregate { group_by; aggs; input } ->
      iter_named ~skip ~plan ~expr group_by;
      iter_aggs ~skip ~plan ~expr aggs;
      walk ~skip ~plan ~expr input
  | Sort (ks, i) ->
      iter_named ~skip ~plan ~expr ks;
      walk ~skip ~plan ~expr i
  | Limit (_, i) -> walk ~skip ~plan ~expr i

and iter_opt ~skip ~plan ~expr = function None -> () | Some e -> iter_expr ~skip ~plan ~expr e

and iter_bound ~skip ~plan ~expr = function
  | Unbounded -> ()
  | Incl e | Excl e -> iter_expr ~skip ~plan ~expr e

and iter_named : 'n. skip:_ -> plan:_ -> expr:_ -> (expr * 'n) list -> unit =
 fun ~skip ~plan ~expr -> function
  | [] -> ()
  | (e, _) :: rest ->
      iter_expr ~skip ~plan ~expr e;
      iter_named ~skip ~plan ~expr rest

and iter_attrs ~skip ~plan ~expr = function
  | [] -> ()
  | (_, e) :: rest ->
      iter_expr ~skip ~plan ~expr e;
      iter_attrs ~skip ~plan ~expr rest

and iter_pairs ~skip ~plan ~expr = function
  | [] -> ()
  | (a, b) :: rest ->
      iter_expr ~skip ~plan ~expr a;
      iter_expr ~skip ~plan ~expr b;
      iter_pairs ~skip ~plan ~expr rest

and iter_exprs ~skip ~plan ~expr = function
  | [] -> ()
  | e :: rest ->
      iter_expr ~skip ~plan ~expr e;
      iter_exprs ~skip ~plan ~expr rest

and iter_aggs ~skip ~plan ~expr = function
  | [] -> ()
  | (a, _) :: rest ->
      (match a with
      | Count_star -> ()
      | Count e | Sum e | Min e | Max e | Avg e | String_agg (e, _) ->
          iter_expr ~skip ~plan ~expr e
      | Xml_agg (e, order) ->
          iter_expr ~skip ~plan ~expr e;
          iter_named ~skip ~plan ~expr order);
      iter_aggs ~skip ~plan ~expr rest

and iter_expr ~skip ~plan ~expr e =
  match skip with
  | Some s when s == e -> ()
  | _ -> (
      expr e;
      match e with
      | Col _ | Const _ | Param _ -> ()
      | Binop (_, a, b) ->
          iter_expr ~skip ~plan ~expr a;
          iter_expr ~skip ~plan ~expr b
      | Not e | Is_null e | Xml_text e | Xml_comment e | Xml_pi (_, e) ->
          iter_expr ~skip ~plan ~expr e
      | Fn (_, es) | Xml_concat es -> iter_exprs ~skip ~plan ~expr es
      | Case (whens, els) ->
          iter_pairs ~skip ~plan ~expr whens;
          iter_opt ~skip ~plan ~expr els
      | Xml_element (_, attrs, kids) ->
          iter_attrs ~skip ~plan ~expr attrs;
          iter_exprs ~skip ~plan ~expr kids
      | Xml_forest fs -> iter_attrs ~skip ~plan ~expr fs
      | Scalar_subquery p | Exists p -> walk ~skip ~plan ~expr p)

(** [iter ?skip ~plan ~expr p] — [plan] on every operator of [p] in
    pre-order, [expr] on every expression node, descending into the
    correlated subplans of expressions where they occur: an operator's
    own expressions before its inputs.  The expression [skip]
    (physically) and everything below it is left out.  Written without
    local closures, so a walk allocates nothing of its own (plans
    compiled per request are walked on the request path). *)
let iter ?skip ~plan ~expr p = walk ~skip ~plan ~expr p

(** Base tables a plan reads — scans of the plan tree and of every
    correlated subplan, deduplicated in first-visit order. *)
let tables_of p =
  let acc = ref [] in
  iter p ~expr:ignore ~plan:(function
    | Seq_scan { table; _ } | Index_scan { table; _ } ->
        if not (List.mem table !acc) then acc := table :: !acc
    | _ -> ());
  List.rev !acc

(** [bind_params values p] — [p] with every [Param i] replaced by
    [Const values.(i)], correlated subplans included. *)
let bind_params (values : Value.t array) (p : plan) : plan =
  let rec ex e =
    match e with
    | Param i -> Const values.(i)
    | Const _ | Col _ -> e
    | Binop (op, a, b) -> Binop (op, ex a, ex b)
    | Not a -> Not (ex a)
    | Is_null a -> Is_null (ex a)
    | Fn (f, args) -> Fn (f, List.map ex args)
    | Case (whens, els) -> Case (List.map (fun (c, r) -> (ex c, ex r)) whens, Option.map ex els)
    | Xml_element (n, attrs, kids) -> Xml_element (n, named attrs, List.map ex kids)
    | Xml_forest fs -> Xml_forest (named fs)
    | Xml_concat es -> Xml_concat (List.map ex es)
    | Xml_text a -> Xml_text (ex a)
    | Xml_comment a -> Xml_comment (ex a)
    | Xml_pi (t, a) -> Xml_pi (t, ex a)
    | Scalar_subquery q -> Scalar_subquery (pl q)
    | Exists q -> Exists (pl q)
  and named l = List.map (fun (n, e) -> (n, ex e)) l
  and keyed : 'n. (expr * 'n) list -> (expr * 'n) list = fun l -> List.map (fun (e, n) -> (ex e, n)) l
  and bound = function Unbounded -> Unbounded | Incl e -> Incl (ex e) | Excl e -> Excl (ex e)
  and agg = function
    | Count_star -> Count_star
    | Count e -> Count (ex e)
    | Sum e -> Sum (ex e)
    | Min e -> Min (ex e)
    | Max e -> Max (ex e)
    | Avg e -> Avg (ex e)
    | Xml_agg (e, order) -> Xml_agg (ex e, keyed order)
    | String_agg (e, sep) -> String_agg (ex e, sep)
  and pl p =
    match p with
    | Seq_scan _ | Values _ -> p
    | Index_scan r -> Index_scan { r with lo = bound r.lo; hi = bound r.hi }
    | Filter (c, i) -> Filter (ex c, pl i)
    | Project (fs, i) -> Project (keyed fs, pl i)
    | Nested_loop { outer; inner; join_cond } ->
        Nested_loop { outer = pl outer; inner = pl inner; join_cond = Option.map ex join_cond }
    | Hash_join { outer; inner; keys; kind } ->
        Hash_join
          { outer = pl outer; inner = pl inner; keys = List.map (fun (a, b) -> (ex a, ex b)) keys; kind }
    | Aggregate { group_by; aggs; input } ->
        Aggregate { group_by = keyed group_by; aggs = List.map (fun (a, n) -> (agg a, n)) aggs; input = pl input }
    | Sort (ks, i) -> Sort (keyed ks, pl i)
    | Limit (n, i) -> Limit (n, pl i)
  in
  pl p

(** Tree-shaped EXPLAIN output, descending into correlated subqueries.
    [annot] supplies a per-node suffix (cardinality estimates, runtime
    stats); it is appended to the operator's own line between parens. *)
let explain_annotated ?(annot = fun (_ : plan) -> None) plan =
  let buf = Buffer.create 256 in
  let rec subs depth es =
    List.iter
      (fun e ->
        List.iter
          (fun p ->
            Buffer.add_string buf (String.make (2 * depth) ' ' ^ "SubPlan\n");
            go (depth + 1) p)
          (subplans_of_expr e))
      es
  and go depth p =
    let pad = String.make (2 * depth) ' ' in
    let line s =
      let suffix = match annot p with None -> "" | Some a -> "  (" ^ a ^ ")" in
      Buffer.add_string buf (pad ^ s ^ suffix ^ "\n")
    in
    match p with
    | Seq_scan { table; alias } -> line (Printf.sprintf "SeqScan %s as %s" table alias)
    | Index_scan { table; alias; index_column; lo; hi } ->
        let b = function
          | Unbounded -> "-inf/+inf"
          | Incl e -> "=" ^ expr_sql e
          | Excl e -> ">" ^ expr_sql e
        in
        line
          (Printf.sprintf "IndexScan %s as %s using idx(%s) lo:%s hi:%s" table alias index_column
             (b lo) (b hi))
    | Filter (c, i) ->
        line ("Filter " ^ expr_sql c);
        subs (depth + 1) [ c ];
        go (depth + 1) i
    | Project (fs, i) ->
        line ("Project " ^ String.concat ", " (List.map (fun (_, n) -> n) fs));
        subs (depth + 1) (List.map fst fs);
        go (depth + 1) i
    | Nested_loop { outer; inner; join_cond } ->
        line
          ("NestedLoop"
          ^ match join_cond with None -> "" | Some c -> " on " ^ expr_sql c);
        go (depth + 1) outer;
        go (depth + 1) inner
    | Hash_join { outer; inner; keys; kind } ->
        line (Printf.sprintf "HashJoin(%s, %s)" (join_kind_name kind) (hash_keys_sql keys));
        subs (depth + 1) (List.concat_map (fun (ok, ik) -> [ ok; ik ]) keys);
        go (depth + 1) outer;
        go (depth + 1) inner
    | Aggregate { group_by; aggs; input } ->
        line
          (Printf.sprintf "Aggregate groups:[%s] aggs:[%s]"
             (String.concat "," (List.map snd group_by))
             (String.concat "," (List.map snd aggs)));
        List.iter
          (fun (a, _) ->
            List.iter
              (fun p ->
                Buffer.add_string buf (String.make (2 * (depth + 1)) ' ' ^ "SubPlan\n");
                go (depth + 2) p)
              (subplans_of_agg a))
          aggs;
        go (depth + 1) input
    | Sort (keys, i) ->
        line (Printf.sprintf "Sort (%d keys)" (List.length keys));
        go (depth + 1) i
    | Limit (n, i) ->
        line (Printf.sprintf "Limit %d" n);
        go (depth + 1) i
    | Values { rows; _ } -> line (Printf.sprintf "Values (%d rows)" (List.length rows))
  in
  go 0 plan;
  Buffer.contents buf

let explain plan = explain_annotated plan

(* convenient constructors *)
let col c = Col (None, c)
let qcol a c = Col (Some a, c)
let const_int i = Const (Value.Int i)
let const_str s = Const (Value.Str s)
let ( =. ) a b = Binop (Eq, a, b)
let ( >. ) a b = Binop (Gt, a, b)
let ( <. ) a b = Binop (Lt, a, b)
let ( &&. ) a b = Binop (And, a, b)
