(** Cost-based plan optimisation.

    Rewrites carrying the paper's performance story:

    - {b Index selection} — [Filter(col ⊕ const, Seq_scan t)] becomes an
      [Index_scan] when a B-tree exists on [col] (paper §2.1: "the standard
      relational optimizer can select the index on the sal column").  With
      collected statistics the {e cheapest} access path wins by the {!Cost}
      model (most selective indexed conjunct, or the sequential scan when
      no probe pays off); without statistics the first indexed conjunct is
      taken, exactly as the rule-based optimizer did.
    - {b Filter merging / pushdown} — conjunctive predicates are split so
      each conjunct can find its own access path; filters move below
      projections (rename-aware) and limits move below projections.
    - {b Index nested-loop join} — an equi-join [join_cond] turns the inner
      [Seq_scan] into a correlated [Index_scan] probe when an index exists
      on the join column, with cost-based outer/inner ordering.  Applied
      only with collected statistics so pre-ANALYZE plans are unchanged. *)

open Algebra

let conjuncts = Cost.conjuncts
let conjoin = Cost.conjoin

(** Stats-aware cardinality estimate (System-R defaults when no stats). *)
let estimate_rows db plan = Cost.estimate_rows db plan

let has_stats db table = Database.table_stats db table <> None

let indexed_columns db table =
  match Database.table_opt db table with
  | None -> []
  | Some t -> List.map (fun i -> i.Table.idx_column) t.Table.indexes

(* every rewrite of [Filter (cs, Seq_scan)] into an index access path —
   one candidate per indexed sargable conjunct, residual filter on top.
   When one indexed column carries both a lower- and an upper-bound
   conjunct (the interval-containment predicates of shredded XML axes:
   [pre > c.pre ∧ pre < c.post]), a merged candidate scanning the closed
   two-sided range is emitted first, so the rule-based choice probes the
   interval instead of walking half the index with a residual filter. *)
let index_candidates db table alias cs =
  let indexed = List.sort_uniq compare (indexed_columns db table) in
  let bound_of col want c =
    match Cost.sargable alias c with
    | Some (col', op, rhs) when col' = col -> (
        match (want, op) with
        | `Lower, Gt -> Some (Excl rhs)
        | `Lower, Geq -> Some (Incl rhs)
        | `Upper, Lt -> Some (Excl rhs)
        | `Upper, Leq -> Some (Incl rhs)
        | _ -> None)
    | _ -> None
  in
  let merged =
    List.filter_map
      (fun col ->
        let pick want = List.find_opt (fun c -> bound_of col want c <> None) cs in
        match (pick `Lower, pick `Upper) with
        | Some lc, Some uc ->
            let lo = Option.get (bound_of col `Lower lc) in
            let hi = Option.get (bound_of col `Upper uc) in
            let scan = Index_scan { table; alias; index_column = col; lo; hi } in
            let remaining = List.filter (fun c -> c != lc && c != uc) cs in
            Some (if remaining = [] then scan else Filter (conjoin remaining, scan))
        | _ -> None)
      indexed
  in
  let rec go seen = function
    | [] -> []
    | c :: rest ->
        let tail = go (c :: seen) rest in
        (match Cost.sargable alias c with
        | Some (col, op, rhs) when List.mem col indexed ->
            let lo, hi = Cost.bounds_of op rhs in
            let scan = Index_scan { table; alias; index_column = col; lo; hi } in
            let remaining = List.rev seen @ rest in
            let plan = if remaining = [] then scan else Filter (conjoin remaining, scan) in
            plan :: tail
        | _ -> tail)
  in
  merged @ go [] cs

(* access path for [Filter (cond, Seq_scan)]: without stats the first
   indexed conjunct wins (rule-based); with stats the cheapest of every
   index candidate and the sequential scan wins *)
let choose_access_path ?binding db table alias cond input cs =
  match index_candidates db table alias cs with
  | [] -> Filter (cond, input)
  | first :: _ as candidates ->
      if not (has_stats db table) then first
      else
        let baseline = Filter (cond, input) in
        List.fold_left
          (fun (bp, bc) p ->
            let c = Cost.plan_cost ?binding db p in
            if c < bc then (p, c) else (bp, bc))
          (baseline, Cost.plan_cost ?binding db baseline)
          candidates
        |> fst

(* rename-aware pushdown of filter conjuncts below a projection: a
   conjunct moves when every bare column it references is a projected
   field whose defining expression is subplan-free (the definition is
   substituted, so computed columns push too).  Alias-qualified references
   resolve in outer scope above the projection — below it they could
   capture the scan's bindings — so conjuncts using them stay put. *)
let push_through_project fields cs =
  let field_expr n = List.find_map (fun (e, fn) -> if fn = n then Some e else None) fields in
  let rec rewrite e =
    match e with
    | Col (None, n) -> (
        match field_expr n with
        | Some fe when subplans_of_expr fe = [] -> Some fe
        | _ -> None)
    | Col (Some _, _) -> None
    | Const _ | Param _ -> Some e
    | Binop (op, a, b) -> (
        match (rewrite a, rewrite b) with
        | Some a', Some b' -> Some (Binop (op, a', b'))
        | _ -> None)
    | Not a -> Option.map (fun a' -> Not a') (rewrite a)
    | Is_null a -> Option.map (fun a' -> Is_null a') (rewrite a)
    | Fn (f, args) ->
        let args' = List.filter_map rewrite args in
        if List.length args' = List.length args then Some (Fn (f, args')) else None
    | _ -> None
  in
  List.partition_map
    (fun c -> match rewrite c with Some c' -> Either.Left c' | None -> Either.Right c)
    cs

(* equi-join probe: turn the inner [Seq_scan] into a correlated
   [Index_scan] on an indexed equality conjunct of the join condition; the
   full condition is kept as a recheck above the probe *)
let index_nl_candidate db outer inner cond =
  match inner with
  | Seq_scan { table; alias } ->
      let indexed = indexed_columns db table in
      List.find_map
        (fun c ->
          match Cost.sargable alias c with
          | Some (col, Eq, rhs) when List.mem col indexed ->
              let probe =
                Index_scan { table; alias; index_column = col; lo = Incl rhs; hi = Incl rhs }
              in
              Some (Nested_loop { outer; inner = probe; join_cond = Some cond })
          | _ -> None)
        (conjuncts cond)
  | _ -> None

(* may [Nested_loop {outer; inner}] be reordered?  Both sides must be
   plain scans (no correlation possible) over distinct tables with
   disjoint bare column names, so the [irow @ orow] bindings resolve
   identically in either order *)
let swappable db o i =
  match (o, i) with
  | Seq_scan { table = t1; alias = a1 }, Seq_scan { table = t2; alias = a2 } -> (
      a1 <> a2 && t1 <> t2
      &&
      match (Database.table_opt db t1, Database.table_opt db t2) with
      | Some x, Some y ->
          let nx = Table.column_names x in
          List.for_all (fun c -> not (List.mem c nx)) (Table.column_names y)
      | _ -> false)
  | _ -> false

(* The bottom-up rewrite (access-path selection, filter merging and
   pushdown, index nested loop).  It runs {e after} the join-graph passes
   of {!Joingraph}, so single-relation conjuncts lifted out of a join
   region — and the interval-containment pairs among them — reach their
   leaf scans and become (two-sided) index range scans here. *)
let rec rewrite ?binding db plan =
  let rewrite = rewrite ?binding in
  match plan with
  | Filter (cond, input) -> (
      let input = rewrite db input in
      let cs = conjuncts cond in
      match input with
      | Seq_scan { table; alias } -> choose_access_path ?binding db table alias cond input cs
      | Filter (inner_cond, deeper) ->
          rewrite db (Filter (conjoin (cs @ conjuncts inner_cond), deeper))
      | Project (fields, pinput) -> (
          match push_through_project fields cs with
          | [], _ -> Filter (cond, input)
          | pushed, residual ->
              let below = rewrite db (Filter (conjoin pushed, pinput)) in
              let proj = Project (fields, below) in
              if residual = [] then proj else Filter (conjoin residual, proj))
      | _ -> Filter (cond, input))
  | Project (fields, input) -> Project (fields, rewrite db input)
  | Nested_loop { outer; inner; join_cond } -> (
      let outer = rewrite db outer in
      let inner = rewrite db inner in
      let base = Nested_loop { outer; inner; join_cond } in
      match join_cond with
      | None -> base
      | Some cond ->
          (* cost-based choices (probe conversion, join order) only with
             collected statistics: pre-ANALYZE plans stay unchanged *)
          let stats_on p =
            match p with Seq_scan { table; _ } -> has_stats db table | _ -> false
          in
          let candidates =
            (if stats_on inner then Option.to_list (index_nl_candidate db outer inner cond)
             else [])
            @ (if swappable db outer inner && stats_on outer && stats_on inner then
                 Nested_loop { outer = inner; inner = outer; join_cond }
                 :: Option.to_list (index_nl_candidate db inner outer cond)
               else [])
          in
          if candidates = [] then base
          else
            List.fold_left
              (fun (bp, bc) p ->
                let c = Cost.plan_cost ?binding db p in
                if c < bc then (p, c) else (bp, bc))
              (base, Cost.plan_cost ?binding db base)
              candidates
            |> fst)
  | Hash_join { outer; inner; keys; kind } ->
      Hash_join { outer = rewrite db outer; inner = rewrite db inner; keys; kind }
  | Aggregate a -> Aggregate { a with input = rewrite db a.input }
  | Sort (keys, input) -> Sort (keys, rewrite db input)
  | Limit (n, input) -> (
      (* projection work is wasted on rows the limit discards: push the
         limit below the (1:1) projection *)
      let input = rewrite db input in
      match input with
      | Project (fields, pinput) -> Project (fields, rewrite db (Limit (n, pinput)))
      | _ -> Limit (n, input))
  | (Seq_scan _ | Index_scan _ | Values _) as leaf -> leaf

(** [optimize ?timer ?binding db plan] — the full single-level
    pipeline: the {!Joingraph} passes (subquery unnesting, join-region
    isolation, greedy join ordering — all stats-gated, identities before
    ANALYZE) followed by the bottom-up access-path {!rewrite}.  [timer]
    wraps each named pass for per-pass planning-time metrics; [binding]
    gives the cost model the values of the plan's parameters. *)
let optimize ?timer ?binding db plan =
  let timed name f = match timer with Some t -> t name f | None -> f () in
  let plan = timed "opt_unnest" (fun () -> Joingraph.unnest db plan) in
  let plan = timed "opt_isolate" (fun () -> Joingraph.isolate db plan) in
  let plan = timed "opt_order" (fun () -> Joingraph.order ?binding db plan) in
  timed "opt_rewrite" (fun () -> rewrite ?binding db plan)

(** Recursively optimise plans nested inside expressions (correlated
    subqueries in publishing output). *)
let rec optimize_deep ?timer ?binding db plan =
  let optimize_deep = optimize_deep ?timer ?binding in
  let plan = optimize ?timer ?binding db plan in
  let rec fix_expr e =
    match e with
    | Scalar_subquery p -> Scalar_subquery (optimize_deep db p)
    | Exists p -> Exists (optimize_deep db p)
    | Binop (op, a, b) -> Binop (op, fix_expr a, fix_expr b)
    | Not e -> Not (fix_expr e)
    | Is_null e -> Is_null (fix_expr e)
    | Fn (f, args) -> Fn (f, List.map fix_expr args)
    | Case (whens, els) ->
        Case (List.map (fun (c, r) -> (fix_expr c, fix_expr r)) whens, Option.map fix_expr els)
    | Xml_element (n, attrs, kids) ->
        Xml_element (n, List.map (fun (a, e) -> (a, fix_expr e)) attrs, List.map fix_expr kids)
    | Xml_forest fs -> Xml_forest (List.map (fun (n, e) -> (n, fix_expr e)) fs)
    | Xml_concat es -> Xml_concat (List.map fix_expr es)
    | Xml_text e -> Xml_text (fix_expr e)
    | Xml_comment e -> Xml_comment (fix_expr e)
    | Xml_pi (t, e) -> Xml_pi (t, fix_expr e)
    | (Const _ | Param _ | Col _) as e -> e
  in
  let fix_agg = function
    | Xml_agg (e, order) -> Xml_agg (fix_expr e, List.map (fun (k, d) -> (fix_expr k, d)) order)
    | Count e -> Count (fix_expr e)
    | Sum e -> Sum (fix_expr e)
    | Min e -> Min (fix_expr e)
    | Max e -> Max (fix_expr e)
    | Avg e -> Avg (fix_expr e)
    | String_agg (e, s) -> String_agg (fix_expr e, s)
    | Count_star -> Count_star
  in
  match plan with
  | Project (fields, input) ->
      Project (List.map (fun (e, n) -> (fix_expr e, n)) fields, optimize_deep db input)
  | Filter (c, input) -> Filter (fix_expr c, optimize_deep db input)
  | Aggregate { group_by; aggs; input } ->
      Aggregate
        {
          group_by = List.map (fun (e, n) -> (fix_expr e, n)) group_by;
          aggs = List.map (fun (a, n) -> (fix_agg a, n)) aggs;
          input = optimize_deep db input;
        }
  | Nested_loop { outer; inner; join_cond } ->
      Nested_loop
        {
          outer = optimize_deep db outer;
          inner = optimize_deep db inner;
          join_cond = Option.map fix_expr join_cond;
        }
  | Hash_join { outer; inner; keys; kind } ->
      Hash_join
        {
          outer = optimize_deep db outer;
          inner = optimize_deep db inner;
          keys = List.map (fun (ok, ik) -> (fix_expr ok, fix_expr ik)) keys;
          kind;
        }
  | Sort (keys, input) ->
      Sort (List.map (fun (k, d) -> (fix_expr k, d)) keys, optimize_deep db input)
  | Limit (n, input) -> Limit (n, optimize_deep db input)
  | (Seq_scan _ | Index_scan _ | Values _) as leaf -> leaf

(** EXPLAIN with per-operator cardinality estimates appended. *)
let explain_with_estimates db plan =
  let base =
    Algebra.explain_annotated
      ~annot:(fun p -> Some (Printf.sprintf "est=%.0f" (estimate_rows db p)))
      plan
  in
  Printf.sprintf "-- estimated rows: %.0f\n%s" (estimate_rows db plan) base

(** EXPLAIN ANALYZE: estimated vs actual rows, loops, B-tree probe and heap
    row counts, and inclusive wall time per operator.  [stats] is the
    collector filled by {!Exec.run_analyzed} over the same plan tree. *)
let explain_analyze db plan (stats : Stats.t) =
  let annot p =
    let est = Printf.sprintf "est=%.0f" (estimate_rows db p) in
    match Stats.find stats p with
    | None -> Some est
    | Some s -> Some (est ^ " " ^ Stats.annotation s)
  in
  Printf.sprintf "-- actual rows: %d\n%s" (Stats.root_rows stats)
    (Algebra.explain_annotated ~annot plan)
