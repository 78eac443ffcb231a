(** The reference executor of the differential tests.

    The library's executor ({!Xdb_rel.Exec}) resolves column references
    to slots when a plan opens and pulls batches of array rows.  This one
    keeps the original association-list semantics: a row is a list from
    column names to values, every column reference re-resolves its name
    per row with [List.assoc], and every operator produces its whole row
    list before its parent runs.  The tests compare the two row for row,
    byte for byte and, through {!run_analyzed}, operator by operator (the
    per-operator actual-row, loop, B-tree and hash-join counts agree). *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
open Xdb_rel
open Algebra

type row = Exec.row

type ctx = { db : Database.t; stats : Stats.t option; xml_streaming : bool }

let err fmt = Printf.ksprintf (fun m -> raise (Exec.Exec_error m)) fmt
let bool_of_value = Exec.bool_of_value
let emit_content = Exec.emit_content

let lookup (env : row) alias name =
  match alias with
  | Some a -> (
      match List.assoc_opt (a ^ "." ^ name) env with
      | Some v -> v
      | None -> err "unknown column %s.%s" a name)
  | None -> (
      match List.assoc_opt name env with
      | Some v -> v
      | None -> err "unknown column %s" name)

let xml_value ~streaming produce =
  if streaming then Value.Xml_stream produce else Value.Xml (Value.stream_to_nodes produce)

let note_order (sop : Stats.op_stats option) presorted =
  match sop with
  | None -> ()
  | Some s ->
      if presorted then s.Stats.presorted <- s.Stats.presorted + 1
      else s.Stats.sorted <- s.Stats.sorted + 1

let dir_cmp d c = match d with Asc -> c | Desc -> -c

(* hash-join bucket key: values equal under [Value.compare_sql] share a
   bucket (numbers through their float image); candidates are re-checked
   with [Value.equal_sql] *)
let hash_key_string (vs : Value.t array) : string =
  let b = Buffer.create 32 in
  Array.iter
    (fun v ->
      (match v with
      | Value.Int _ | Value.Float _ ->
          Buffer.add_char b 'n';
          Buffer.add_string b (Value.float_to_string (Value.to_float v))
      | Value.Str s ->
          Buffer.add_char b 's';
          Buffer.add_string b s
      | v ->
          Buffer.add_char b 'x';
          Buffer.add_string b (Value.to_string v));
      Buffer.add_char b '\x00')
    vs;
  Buffer.contents b

let hash_keys_equal (a : Value.t array) (b : Value.t array) : bool =
  let n = Array.length a in
  let rec go i = i >= n || (Value.equal_sql a.(i) b.(i) && go (i + 1)) in
  go 0

(* Static own-binding names of a plan's rows, without the correlation
   tail — what the LEFT OUTER hash join null-pads when a probe row has
   no match (the library executor's own-slot prefix of the build
   layout). *)
let rec own_binding_names db (p : plan) : string list =
  match p with
  | Seq_scan { table; alias } | Index_scan { table; alias; _ } ->
      Array.to_list (Database.table db table).Table.columns
      |> List.concat_map (fun c -> [ c.Table.col_name; alias ^ "." ^ c.Table.col_name ])
  | Filter (_, i) | Sort (_, i) | Limit (_, i) -> own_binding_names db i
  | Project (fields, _) -> List.map snd fields
  | Nested_loop { outer; inner; _ } -> own_binding_names db inner @ own_binding_names db outer
  | Hash_join { outer; inner; kind = Inner | Left_outer; _ } ->
      own_binding_names db inner @ own_binding_names db outer
  | Hash_join { outer; kind = Semi | Anti; _ } -> own_binding_names db outer
  | Aggregate { group_by; aggs; _ } -> List.map snd group_by @ List.map snd aggs
  | Values { cols; _ } -> cols

let rec eval_expr_in ctx (env : row) (e : expr) : Value.t =
  match e with
  | Const v -> v
  | Param i -> failwith (Printf.sprintf "unbound plan parameter :p%d" i)
  | Col (alias, name) -> lookup env alias name
  | Not e -> Value.Int (if bool_of_value (eval_expr_in ctx env e) then 0 else 1)
  | Is_null e -> Value.Int (if Value.is_null (eval_expr_in ctx env e) then 1 else 0)
  | Binop (op, a, b) -> eval_binop ctx env op a b
  | Fn (f, args) -> eval_fn ctx env f args
  | Case (whens, els) -> (
      let rec go = function
        | [] -> ( match els with Some e -> eval_expr_in ctx env e | None -> Value.Null)
        | (c, r) :: rest ->
            if bool_of_value (eval_expr_in ctx env c) then eval_expr_in ctx env r else go rest
      in
      go whens)
  | Xml_element (name, attrs, kids) ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          sink.E.emit (E.Start_element (X.qname name));
          List.iter
            (fun (an, ae) ->
              match eval_expr_in ctx env ae with
              | Value.Null -> ()
              | v -> sink.E.emit (E.Attr (X.qname an, Value.to_string v)))
            attrs;
          List.iter (fun ke -> emit_content sink (eval_expr_in ctx env ke)) kids;
          sink.E.emit E.End_element)
  | Xml_forest fields ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          List.iter
            (fun (n, fe) ->
              match eval_expr_in ctx env fe with
              | Value.Null -> ()
              | v ->
                  sink.E.emit (E.Start_element (X.qname n));
                  emit_content sink v;
                  sink.E.emit E.End_element)
            fields)
  | Xml_concat es ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          List.iter (fun e -> emit_content sink (eval_expr_in ctx env e)) es)
  | Xml_text e ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          match eval_expr_in ctx env e with
          | Value.Null -> ()
          | v -> sink.E.emit (E.Text (Value.to_string v)))
  | Xml_comment e ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          sink.E.emit (E.Comment (Value.to_string (eval_expr_in ctx env e))))
  | Xml_pi (t, e) ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          sink.E.emit (E.Pi (t, Value.to_string (eval_expr_in ctx env e))))
  | Scalar_subquery p -> (
      match run_in ctx ~outer:env p with
      | [] -> Value.Null
      | r :: _ -> ( match r with [] -> Value.Null | (_, v) :: _ -> v))
  | Exists p -> Value.Int (if run_in ctx ~outer:env p = [] then 0 else 1)

and eval_binop ctx env op a b =
  match op with
  | And ->
      Value.Int
        (if bool_of_value (eval_expr_in ctx env a) && bool_of_value (eval_expr_in ctx env b)
         then 1
         else 0)
  | Or ->
      Value.Int
        (if bool_of_value (eval_expr_in ctx env a) || bool_of_value (eval_expr_in ctx env b)
         then 1
         else 0)
  | Concat ->
      Value.Str
        (Value.to_string (eval_expr_in ctx env a) ^ Value.to_string (eval_expr_in ctx env b))
  | Fdiv ->
      let va = eval_expr_in ctx env a and vb = eval_expr_in ctx env b in
      (match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | _ -> Value.Float (Value.to_float va /. Value.to_float vb))
  | Add | Sub | Mul | Div | Mod -> (
      let va = eval_expr_in ctx env a and vb = eval_expr_in ctx env b in
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Int x, Value.Int y -> (
          match op with
          | Add -> Value.Int (x + y)
          | Sub -> Value.Int (x - y)
          | Mul -> Value.Int (x * y)
          | Div -> if y = 0 then err "division by zero" else Value.Int (x / y)
          | Mod -> if y = 0 then err "division by zero" else Value.Int (x mod y)
          | _ -> assert false)
      | _ ->
          let x = Value.to_float va and y = Value.to_float vb in
          let f =
            match op with
            | Add -> x +. y
            | Sub -> x -. y
            | Mul -> x *. y
            | Div -> x /. y
            | Mod -> Float.rem x y
            | _ -> assert false
          in
          Value.Float f)
  | Eq | Neq | Lt | Leq | Gt | Geq -> (
      let va = eval_expr_in ctx env a and vb = eval_expr_in ctx env b in
      if Value.is_null va || Value.is_null vb then Value.Null
      else if Value.is_nan va || Value.is_nan vb then Value.Int (if op = Neq then 1 else 0) (* NaN is unordered *)
      else
        match Value.compare_sql va vb with
        | None -> Value.Null
        | Some c ->
            let b =
              match op with
              | Eq -> c = 0
              | Neq -> c <> 0
              | Lt -> c < 0
              | Leq -> c <= 0
              | Gt -> c > 0
              | Geq -> c >= 0
              | _ -> assert false
            in
            Value.Int (if b then 1 else 0))

and eval_fn ctx env f args =
  let v i = eval_expr_in ctx env (List.nth args i) in
  match (String.lowercase_ascii f, List.length args) with
  | "concat", _ ->
      Value.Str
        (String.concat "" (List.map (fun a -> Value.to_string (eval_expr_in ctx env a)) args))
  | "upper", 1 -> Value.Str (String.uppercase_ascii (Value.to_string (v 0)))
  | "lower", 1 -> Value.Str (String.lowercase_ascii (Value.to_string (v 0)))
  | "length", 1 -> Value.Int (String.length (Value.to_string (v 0)))
  | "xpath_number", 1 -> (
      match v 0 with Value.Str s -> Value.Float (Xdb_xpath.Value.number_of_string s) | x -> x)
  | "abs", 1 -> (
      match v 0 with
      | Value.Int i -> Value.Int (abs i)
      | x -> Value.Float (Float.abs (Value.to_float x)))
  | "round", 1 -> (
      match v 0 with
      | Value.Null -> Value.Null
      | x -> Value.Float (Xdb_xpath.Value.round_number (Value.to_float x)))
  | "floor", 1 -> (
      match v 0 with Value.Null -> Value.Null | x -> Value.Float (Float.floor (Value.to_float x)))
  | "ceiling", 1 -> (
      match v 0 with Value.Null -> Value.Null | x -> Value.Float (Float.ceil (Value.to_float x)))
  | "coalesce", _ ->
      let rec go = function
        | [] -> Value.Null
        | a :: rest -> ( match eval_expr_in ctx env a with Value.Null -> go rest | x -> x)
      in
      go args
  | name, n -> err "unknown scalar function %s/%d" name n

(* one operator, uninstrumented *)
and run_node ctx (outer : row) (p : plan) : row list =
  let db = ctx.db in
  match p with
  | Seq_scan { table; alias } ->
      let tbl = Database.table db table in
      Table.fold (fun acc _ r -> (Exec.scan_bindings tbl alias r @ outer) :: acc) [] tbl
      |> List.rev
  | Index_scan { table; alias; index_column; lo; hi } -> (
      let tbl = Database.table db table in
      match Table.find_index tbl index_column with
      | None -> err "no index on %s.%s" table index_column
      | Some idx ->
          let bound = function
            | Unbounded -> Btree.Unbounded
            | Incl e -> Btree.Inclusive (eval_expr_in ctx outer e)
            | Excl e -> Btree.Exclusive (eval_expr_in ctx outer e)
          in
          Exec.index_rids tbl idx (bound lo) (bound hi)
          |> Array.to_list
          |> List.map (fun rid -> Exec.scan_bindings tbl alias (Table.row tbl rid) @ outer))
  | Filter (cond, input) ->
      List.filter (fun r -> bool_of_value (eval_expr_in ctx r cond)) (run_in ctx ~outer input)
  | Project (fields, input) ->
      List.map
        (fun r -> List.map (fun (e, n) -> (n, eval_expr_in ctx r e)) fields @ outer)
        (run_in ctx ~outer input)
  | Nested_loop { outer = op; inner = ip; join_cond } ->
      let outer_rows = run_in ctx ~outer op in
      List.concat_map
        (fun orow ->
          let inner_rows = run_in ctx ~outer:orow ip in
          let joined = List.map (fun irow -> irow @ orow) inner_rows in
          match join_cond with
          | None -> joined
          | Some c -> List.filter (fun r -> bool_of_value (eval_expr_in ctx r c)) joined)
        outer_rows
  | Hash_join { outer = op; inner = ip; keys; kind } ->
      let sop = match ctx.stats with None -> None | Some st -> Stats.find st p in
      let probe_rows = run_in ctx ~outer op in
      let build_input = run_in ctx ~outer ip in
      (* build rows carry the enclosing environment as their tail; strip it
         so joined rows are [iown @ orow], the Nested_loop binding shape *)
      let olen = List.length outer in
      let rec take n l =
        if n <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl
      in
      let tbl = Hashtbl.create (max 16 (List.length build_input)) in
      List.iter
        (fun irow ->
          (match sop with Some s -> s.Stats.build_rows <- s.Stats.build_rows + 1 | None -> ());
          let kvs =
            Array.of_list (List.map (fun (_, ik) -> eval_expr_in ctx irow ik) keys)
          in
          (* NULL keys never satisfy SQL equality: leave them out of the table *)
          if not (Array.exists Value.is_null kvs) then (
            let key = hash_key_string kvs in
            let cell =
              match Hashtbl.find_opt tbl key with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.add tbl key c;
                  c
            in
            cell := (take (List.length irow - olen) irow, kvs) :: !cell))
        build_input;
      Hashtbl.iter (fun _ c -> c := List.rev !c) tbl;
      let probe orow =
        let kvs = Array.of_list (List.map (fun (ok, _) -> eval_expr_in ctx orow ok) keys) in
        if Array.exists Value.is_null kvs then []
        else
          match Hashtbl.find_opt tbl (hash_key_string kvs) with
          | None -> []
          | Some cell ->
              List.filter_map
                (fun (iown, ikvs) -> if hash_keys_equal kvs ikvs then Some iown else None)
                !cell
      in
      let hit n =
        match sop with Some s -> s.Stats.probe_hits <- s.Stats.probe_hits + n | None -> ()
      in
      (match kind with
      | Inner ->
          List.concat_map
            (fun orow ->
              let ms = probe orow in
              hit (List.length ms);
              List.map (fun iown -> iown @ orow) ms)
            probe_rows
      | Left_outer ->
          let null_own = List.map (fun n -> (n, Value.Null)) (own_binding_names db ip) in
          List.concat_map
            (fun orow ->
              match probe orow with
              | [] -> [ null_own @ orow ]
              | ms ->
                  hit (List.length ms);
                  List.map (fun iown -> iown @ orow) ms)
            probe_rows
      | Semi ->
          List.filter
            (fun orow ->
              match probe orow with
              | [] -> false
              | _ :: _ ->
                  hit 1;
                  true)
            probe_rows
      | Anti ->
          List.filter
            (fun orow ->
              match probe orow with
              | [] -> true
              | _ :: _ ->
                  hit 1;
                  false)
            probe_rows)
  | Aggregate { group_by; aggs; input } ->
      let sop = match ctx.stats with None -> None | Some st -> Stats.find st p in
      let rows = run_in ctx ~outer input in
      if group_by = [] then [ eval_agg_group ctx sop outer group_by aggs rows [] ]
      else
        let groups = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun r ->
            let key = List.map (fun (e, _) -> Value.to_string (eval_expr_in ctx r e)) group_by in
            (match Hashtbl.find_opt groups key with
            | None ->
                order := key :: !order;
                Hashtbl.add groups key (ref [ r ])
            | Some cell -> cell := r :: !cell))
          rows;
        List.rev_map
          (fun key ->
            let members = List.rev !(Hashtbl.find groups key) in
            eval_agg_group ctx sop outer group_by aggs members key)
          !order
  | Sort (keys, input) ->
      let sop = match ctx.stats with None -> None | Some st -> Stats.find st p in
      sort_rows_in ctx sop keys (run_in ctx ~outer input)
  | Limit (n, input) ->
      let rec take n = function
        | [] -> []
        | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
      in
      take n (run_in ctx ~outer input)
  | Values { cols; rows } -> List.map (fun vs -> List.combine cols vs @ outer) rows

(* operator dispatch: the instrumented path wraps [run_node] with wall-time
   and row accounting; the plain path adds no overhead *)
and run_in ctx ?(outer = []) (p : plan) : row list =
  match ctx.stats with
  | None -> run_node ctx outer p
  | Some st -> (
      match Stats.find st p with
      | None -> run_node ctx outer p
      | Some s ->
          (* snapshot B-tree counters so probe/node-visit deltas can be
             attributed to this index-scan execution *)
          let tree =
            match p with
            | Index_scan { table; index_column; _ } -> (
                match Table.find_index (Database.table ctx.db table) index_column with
                | Some idx -> Some idx.Table.tree
                | None -> None)
            | _ -> None
          in
          let probes0, nodes0 =
            match tree with Some t -> (Btree.probes t, Btree.node_visits t) | None -> (0, 0)
          in
          let t0 = Clock.now_ns () in
          let rows = run_node ctx outer p in
          s.Stats.time_ms <- s.Stats.time_ms +. Clock.ms_since t0;
          s.Stats.loops <- s.Stats.loops + 1;
          let produced = List.length rows in
          s.Stats.rows <- s.Stats.rows + produced;
          (match p with
          | Seq_scan { table; _ } ->
              s.Stats.heap_rows <-
                s.Stats.heap_rows + Table.size (Database.table ctx.db table)
          | Index_scan _ ->
              s.Stats.heap_rows <- s.Stats.heap_rows + produced;
              (match tree with
              | Some t ->
                  s.Stats.btree_probes <- s.Stats.btree_probes + (Btree.probes t - probes0);
                  s.Stats.btree_nodes <- s.Stats.btree_nodes + (Btree.node_visits t - nodes0)
              | None -> ())
          | _ -> ());
          rows)

(* ORDER BY over assoc rows: always a full stable sort; whether the input
   was already in order is only counted *)
and sort_rows_in ctx sop keys rows =
  let decorated =
    List.map (fun r -> (List.map (fun (k, d) -> (eval_expr_in ctx r k, d)) keys, r)) rows
  in
  let cmp (ka, _) (kb, _) =
    let rec go = function
      | [] -> 0
      | ((va, d), (vb, _)) :: rest -> (
          match dir_cmp d (Value.compare_key va vb) with 0 -> go rest | c -> c)
    in
    go (List.combine ka kb)
  in
  let rec in_order = function a :: (b :: _ as rest) -> cmp a b <= 0 && in_order rest | _ -> true in
  note_order sop (in_order decorated);
  List.map snd (List.stable_sort cmp decorated)

and eval_agg_group ctx sop outer group_by aggs members key =
  (* group columns: re-evaluate on a member row to keep value types; fall
     back to the string key for an (impossible in practice) empty group *)
  let group_cols =
    match members with
    | m :: _ -> List.map (fun (e, n) -> (n, eval_expr_in ctx m e)) group_by
    | [] -> List.map2 (fun (_, n) k -> (n, Value.Str k)) group_by key
  in
  let agg_cols =
    List.map
      (fun (a, n) ->
        let value =
          match a with
          | Count_star -> Value.Int (List.length members)
          | Count e ->
              Value.Int
                (List.length
                   (List.filter (fun r -> not (Value.is_null (eval_expr_in ctx r e))) members))
          | Sum e ->
              let vs =
                List.filter_map
                  (fun r ->
                    match eval_expr_in ctx r e with Value.Null -> None | v -> Some v)
                  members
              in
              if vs = [] then Value.Null
              else if List.for_all (function Value.Int _ -> true | _ -> false) vs then
                Value.Int (List.fold_left (fun acc v -> acc + Value.to_int v) 0 vs)
              else Value.Float (List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 vs)
          | Min e ->
              List.fold_left
                (fun acc r ->
                  let v = eval_expr_in ctx r e in
                  match (acc, v) with
                  | _, Value.Null -> acc
                  | Value.Null, v -> v
                  | acc, v -> if Value.compare_key v acc < 0 then v else acc)
                Value.Null members
          | Max e ->
              List.fold_left
                (fun acc r ->
                  let v = eval_expr_in ctx r e in
                  match (acc, v) with
                  | _, Value.Null -> acc
                  | Value.Null, v -> v
                  | acc, v -> if Value.compare_key v acc > 0 then v else acc)
                Value.Null members
          | Avg e ->
              let vs =
                List.filter_map
                  (fun r ->
                    match eval_expr_in ctx r e with
                    | Value.Null -> None
                    | v -> Some (Value.to_float v))
                  members
              in
              if vs = [] then Value.Null
              else Value.Float (List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))
          | Xml_agg (e, order) ->
              let members = if order = [] then members else sort_rows_in ctx sop order members in
              xml_value ~streaming:ctx.xml_streaming (fun sink ->
                  List.iter (fun r -> emit_content sink (eval_expr_in ctx r e)) members)
          | String_agg (e, sep) ->
              Value.Str
                (String.concat sep
                   (List.filter_map
                      (fun r ->
                        match eval_expr_in ctx r e with
                        | Value.Null -> None
                        | v -> Some (Value.to_string v))
                      members))
        in
        (n, value))
      aggs
  in
  group_cols @ agg_cols @ outer

(** [run db plan] — the plan's rows as association lists; [outer]
    supplies correlation bindings, [xml_streaming] (default false) makes
    XML constructors produce event producers instead of node trees. *)
let run db ?(outer = []) ?(xml_streaming = false) (p : plan) : row list =
  run_in { db; stats = None; xml_streaming } ~outer p

(** {!run} with per-operator instrumentation. *)
let run_analyzed db ?(outer = []) (p : plan) : row list * Stats.t =
  let stats = Stats.create p in
  let rows = run_in { db; stats = Some stats; xml_streaming = false } ~outer p in
  (rows, stats)
