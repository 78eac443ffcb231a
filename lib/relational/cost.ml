(** Cost model and cardinality estimation.

    Selectivities come from {!Colstats} (histograms, MCVs, NDV) when the
    table has been ANALYZEd, and fall back to the System-R defaults
    (1/10 equality, 1/3 range, 1/4 other) otherwise — so with no
    statistics collected every estimate is exactly what the rule-based
    optimizer produced.  Costs are abstract units: fetching one heap row
    costs 1. *)

open Algebra

(* ------------------------------------------------------------------ *)
(* Predicate analysis (shared with the optimizer)                      *)
(* ------------------------------------------------------------------ *)

(* split a conjunction into conjuncts *)
let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Int 1)
  | e :: rest -> List.fold_left (fun acc c -> Binop (And, acc, c)) e rest

(* is [e] a sargable comparison over a bare/base column of [alias]?
   returns (column, op, constant-side expr); references to other aliases
   count as constant (outer correlation: constant per probe) *)
let sargable alias e =
  let col_of = function
    | Col (None, c) -> Some c
    | Col (Some a, c) when a = alias -> Some c
    | _ -> None
  in
  let rec is_const = function
    | Const _ | Param _ -> true
    | Binop (_, a, b) -> is_const a && is_const b
    | Fn (_, args) -> List.for_all is_const args
    | Col (Some a, _) -> a <> alias (* outer correlation: constant per probe *)
    | _ -> false
  in
  match e with
  | Binop (((Eq | Lt | Leq | Gt | Geq) as op), lhs, rhs) -> (
      match (col_of lhs, is_const rhs, col_of rhs, is_const lhs) with
      | Some c, true, _, _ -> Some (c, op, rhs)
      | _, _, Some c, true ->
          let flipped =
            match op with Eq -> Eq | Lt -> Gt | Leq -> Geq | Gt -> Lt | Geq -> Leq | _ -> op
          in
          Some (c, flipped, lhs)
      | _ -> None)
  | _ -> None

let bounds_of op rhs =
  match op with
  | Eq -> (Incl rhs, Incl rhs)
  | Lt -> (Unbounded, Excl rhs)
  | Leq -> (Unbounded, Incl rhs)
  | Gt -> (Excl rhs, Unbounded)
  | Geq -> (Incl rhs, Unbounded)
  | _ -> (Unbounded, Unbounded)

(* System-R-style default selectivities, used when no statistics exist *)
let eq_selectivity = 0.1
let range_selectivity = 1.0 /. 3.0
let default_selectivity = 0.25

let default_conjunct_selectivity = function
  | Binop (Eq, _, _) -> eq_selectivity
  | Binop ((Lt | Leq | Gt | Geq), _, _) -> range_selectivity
  | _ -> default_selectivity

(* ------------------------------------------------------------------ *)
(* Stats-aware selectivity                                             *)
(* ------------------------------------------------------------------ *)

(* A plan parameter ([Param i]) is a literal whose value the cost model
   reads through a binding, the one place an estimate looks at a
   literal's value.  Each such read is logged, so a later binding can
   replay the log and learn whether every estimate, and so every cost
   choice, would come out the same. *)

type estimator = Sel_eq | Sel_lt | Sel_le

type read = { slot : int; estimator : estimator; stats : Colstats.t; result : float }

type binding = { values : Value.t array; mutable reads : read list }

let binding values = { values; reads = [] }

let reads b = List.rev b.reads

let apply estimator cs v =
  match estimator with
  | Sel_eq -> Colstats.selectivity_eq cs v
  | Sel_lt -> Colstats.selectivity_lt cs v
  | Sel_le -> Colstats.selectivity_le cs v

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let replays reads values =
  List.for_all (fun r -> same_bits (apply r.estimator r.stats values.(r.slot)) r.result) reads

let is_literal = function Const _ | Param _ -> true | _ -> false

(* [e] with a parameter replaced by its bound value *)
let resolve binding e =
  match (e, binding) with Param i, Some b -> Const b.values.(i) | _ -> e

(* the selectivity [estimator] gives the literal [e] under [cs]; a
   parameter's value is read through [binding], and the read logged *)
let literal_selectivity binding estimator cs e =
  match (e, binding) with
  | Const v, _ -> Some (apply estimator cs v)
  | Param slot, Some b ->
      let result = apply estimator cs b.values.(slot) in
      b.reads <- { slot; estimator; stats = cs; result } :: b.reads;
      Some result
  | _ -> None

(* base relation scanned beneath filters, if any: (table, alias) *)
let rec base_of_plan = function
  | Seq_scan { table; alias } | Index_scan { table; alias; _ } -> Some (table, alias)
  | Filter (_, input) -> base_of_plan input
  | _ -> None

(* selectivity of a comparison [col op rhs] against collected stats;
   None when stats cannot help and the caller should use defaults *)
let stats_cmp_selectivity binding (cs : Colstats.t) op rhs =
  let read est = literal_selectivity binding est cs rhs in
  let above s = Float.max 1e-9 (1.0 -. cs.Colstats.null_frac -. s) in
  match op with
  | Eq -> Some (Option.value (read Sel_eq) ~default:(Colstats.selectivity_eq_unknown cs))
  | Lt -> read Sel_lt
  | Leq -> read Sel_le
  | Gt -> Option.map above (read Sel_le)
  | Geq -> Option.map above (read Sel_lt)
  | _ -> None

(** Selectivity of one conjunct over rows of [table] scanned as [alias]:
    histogram/MCV-based when the conjunct is sargable with collected
    stats, the System-R default otherwise. *)
let conjunct_selectivity ?binding db ~table ~alias c =
  let fallback () = default_conjunct_selectivity c in
  match sargable alias c with
  | Some (col, op, rhs) -> (
      match Database.column_stats db table col with
      | Some cs -> (
          match stats_cmp_selectivity binding cs op rhs with
          | Some s -> s
          | None -> fallback ())
      | None -> fallback ())
  | None -> fallback ()

(* selectivity of an index range [lo, hi] over a column with stats *)
let index_range_selectivity binding (cs : Colstats.t) lo hi =
  let read est e default = Option.value (literal_selectivity binding est cs e) ~default in
  let frac_hi = function
    | Unbounded -> 1.0 -. cs.Colstats.null_frac
    | Incl e -> read Sel_le e range_selectivity
    | Excl e -> read Sel_lt e range_selectivity
  in
  let frac_lo = function
    | Unbounded -> 0.0
    | Incl e -> read Sel_lt e 0.0
    | Excl e -> read Sel_le e 0.0
  in
  Float.max 1e-9 (frac_hi hi -. frac_lo lo)

(* ------------------------------------------------------------------ *)
(* Cardinality estimation                                              *)
(* ------------------------------------------------------------------ *)

let rec estimate ~use_stats ?binding db (plan : plan) : float =
  let table_size name =
    match (if use_stats then Database.table_stats db name else None) with
    | Some ts -> float_of_int (max 1 ts.Colstats.row_count)
    | None -> (
        match Database.table_opt db name with
        | Some t -> float_of_int (max 1 (Table.size t))
        | None -> 1000.0)
  in
  let col_stats table col =
    if use_stats then Database.column_stats db table col else None
  in
  match plan with
  | Seq_scan { table; _ } -> table_size table
  | Index_scan { table; index_column; lo; hi; _ } ->
      let n = table_size table in
      let sel =
        match col_stats table index_column with
        | Some cs -> (
            match (lo, hi) with
            | Incl a, Incl b when resolve binding a = resolve binding b ->
                Option.value
                  (literal_selectivity binding Sel_eq cs a)
                  ~default:(Colstats.selectivity_eq_unknown cs)
            | Unbounded, Unbounded -> 1.0
            | _ -> index_range_selectivity binding cs lo hi)
        | None -> (
            match (lo, hi) with
            | Incl a, Incl b when resolve binding a = resolve binding b -> eq_selectivity
            | Unbounded, Unbounded -> 1.0
            | _ -> range_selectivity)
      in
      Float.max 1.0 (n *. sel)
  | Filter (cond, input) ->
      let base = base_of_plan input in
      let sel_of c =
        match base with
        | Some (table, alias) when use_stats -> conjunct_selectivity ?binding db ~table ~alias c
        | _ -> default_conjunct_selectivity c
      in
      let sel = List.fold_left (fun acc c -> acc *. sel_of c) 1.0 (conjuncts cond) in
      Float.max 1.0 (estimate ~use_stats ?binding db input *. sel)
  | Project (_, input) | Sort (_, input) -> estimate ~use_stats ?binding db input
  | Limit (n, input) -> Float.min (float_of_int n) (estimate ~use_stats ?binding db input)
  | Nested_loop { outer; inner; join_cond } ->
      let raw = estimate ~use_stats ?binding db outer *. estimate ~use_stats ?binding db inner in
      let sel =
        match join_cond with
        | None -> 1.0
        | Some cond ->
            let equi_stats_sel () =
              (* NDV-based selectivity for the first equi-join conjunct
                 whose column has stats, on either side *)
              if not use_stats then None
              else
                let try_side side_plan =
                  match base_of_plan side_plan with
                  | None -> None
                  | Some (table, alias) ->
                      List.find_map
                        (fun c ->
                          match sargable alias c with
                          | Some (col, Eq, rhs) when not (is_literal rhs) -> (
                              match Database.column_stats db table col with
                              | Some cs -> Some (Colstats.selectivity_eq_unknown cs)
                              | None -> None)
                          | _ -> None)
                        (conjuncts cond)
                in
                match try_side inner with Some s -> Some s | None -> try_side outer
            in
            Option.value (equi_stats_sel ()) ~default:eq_selectivity
      in
      Float.max 1.0 (raw *. sel)
  | Hash_join { outer; inner; keys; kind } ->
      let ro = estimate ~use_stats ?binding db outer and ri = estimate ~use_stats ?binding db inner in
      (* per-key equi selectivity: NDV-based (MCV-weighted) when either
         side's key column has stats, the System-R default otherwise *)
      let key_sel side_plan key =
        match (base_of_plan side_plan, key) with
        | Some (table, alias), Col (a, col)
          when (match a with None -> true | Some a -> a = alias) && use_stats -> (
            match Database.column_stats db table col with
            | Some cs -> Some (Colstats.selectivity_eq_unknown cs)
            | None -> None)
        | _ -> None
      in
      let sel =
        List.fold_left
          (fun acc (ok, ik) ->
            let s =
              match key_sel inner ik with
              | Some s -> s
              | None -> Option.value (key_sel outer ok) ~default:eq_selectivity
            in
            acc *. s)
          1.0 keys
      in
      (* fraction of probe rows with at least one build match *)
      let match_frac = Float.min 1.0 (ri *. sel) in
      Float.max 1.0
        (match kind with
        | Inner -> ro *. ri *. sel
        | Left_outer -> Float.max ro (ro *. ri *. sel)
        | Semi -> ro *. match_frac
        | Anti -> ro *. (1.0 -. match_frac))
  | Aggregate { group_by = []; _ } -> 1.0
  | Aggregate { group_by; input; _ } -> (
      let in_rows = estimate ~use_stats ?binding db input in
      let ndv_groups () =
        match (group_by, base_of_plan input) with
        | [ (Col (_, c), _) ], Some (table, _) when use_stats -> (
            match Database.column_stats db table c with
            | Some cs -> Some (float_of_int (max 1 cs.Colstats.ndv))
            | None -> None)
        | _ -> None
      in
      match ndv_groups () with
      | Some ndv -> Float.max 1.0 (Float.min in_rows ndv)
      | None -> Float.max 1.0 (in_rows /. 4.0))
  | Values { rows; _ } -> float_of_int (List.length rows)

(** Stats-aware cardinality estimate (defaults when stats are absent). *)
let estimate_rows ?binding db plan = estimate ~use_stats:true ?binding db plan

(** Cardinality estimate using only the System-R defaults, ignoring any
    collected statistics — the pre-ANALYZE baseline, kept for q-error
    comparison in the planquality bench. *)
let estimate_rows_default db plan = estimate ~use_stats:false db plan

(* ------------------------------------------------------------------ *)
(* Plan cost                                                           *)
(* ------------------------------------------------------------------ *)

(* abstract cost units: one heap-row fetch = 1 *)
let heap_row_cost = 1.0
let btree_descent_cost n = 0.5 +. (0.25 *. (Float.log (Float.max 2.0 n) /. Float.log 2.0))
let eval_cost = 0.05 (* per row, per expression evaluated *)
let sort_row_cost n = 0.05 *. (Float.log (Float.max 2.0 n) /. Float.log 2.0)

(* hash join: inserting one build row / probing one key.  Deliberately
   priced above a couple of expression evaluations so a correlated index
   probe still wins small joins (the PR2 plans), while the O(n+m) total
   crushes the O(n·m) nested loop at scale. *)
let hash_build_row_cost = 0.3
let hash_probe_cost = 0.25

(** [plan_cost ?binding db plan] — estimated execution cost in abstract units,
    using stats-aware cardinalities.  Correlated subqueries nested inside
    expressions are charged once per input row. *)
let rec plan_cost ?binding db (plan : plan) : float =
  let rows p = estimate_rows ?binding db p in
  let expr_subplan_cost e =
    List.fold_left (fun acc p -> acc +. plan_cost ?binding db p) 0.0 (subplans_of_expr e)
  in
  match plan with
  | Seq_scan { table; _ } ->
      let n =
        match Database.table_opt db table with
        | Some t -> float_of_int (max 1 (Table.size t))
        | None -> 1000.0
      in
      n *. heap_row_cost
  | Index_scan { table; _ } as scan ->
      let n =
        match Database.table_opt db table with
        | Some t -> float_of_int (max 1 (Table.size t))
        | None -> 1000.0
      in
      btree_descent_cost n +. (rows scan *. heap_row_cost)
  | Filter (cond, input) ->
      let cs = conjuncts cond in
      let per_row =
        (eval_cost *. float_of_int (List.length cs))
        +. List.fold_left (fun acc c -> acc +. expr_subplan_cost c) 0.0 cs
      in
      plan_cost ?binding db input +. (rows input *. per_row)
  | Project (fields, input) ->
      let per_row =
        List.fold_left (fun acc (e, _) -> acc +. eval_cost +. expr_subplan_cost e) 0.0 fields
      in
      plan_cost ?binding db input +. (rows input *. per_row)
  | Nested_loop { outer; inner; join_cond } ->
      let cond_cost =
        match join_cond with
        | None -> 0.0
        | Some _ -> rows outer *. rows inner *. eval_cost
      in
      plan_cost ?binding db outer +. (rows outer *. plan_cost ?binding db inner) +. cond_cost
  | Hash_join { outer; inner; keys; _ } as hj ->
      let nkeys = float_of_int (max 1 (List.length keys)) in
      plan_cost ?binding db outer +. plan_cost ?binding db inner
      +. (rows inner *. (hash_build_row_cost +. (eval_cost *. nkeys)))
      +. (rows outer *. (hash_probe_cost +. (eval_cost *. nkeys)))
      +. (rows hj *. eval_cost)
  | Aggregate { group_by; aggs; input } ->
      let agg_subplan_cost =
        List.fold_left
          (fun acc (a, _) ->
            acc
            +. List.fold_left (fun acc p -> acc +. plan_cost ?binding db p) 0.0 (subplans_of_agg a))
          0.0 aggs
      in
      let per_row =
        (eval_cost *. float_of_int (List.length group_by + List.length aggs))
        +. agg_subplan_cost
      in
      plan_cost ?binding db input +. (rows input *. per_row)
  | Sort (_, input) ->
      let n = rows input in
      plan_cost ?binding db input +. (n *. sort_row_cost n)
  | Limit (_, input) -> plan_cost ?binding db input
  | Values { rows; _ } -> 0.01 *. float_of_int (List.length rows)
