(** Join-graph isolation and set-oriented join planning.

    Three plan-level passes run before the bottom-up access-path rewrite
    of {!Optimizer}:

    - {b unnest} — [EXISTS]/[NOT EXISTS] filter conjuncts over a
      correlated single-table subplan become [Semi]/[Anti]
      {!Algebra.Hash_join}s: the correlating equality conjuncts turn
      into hash keys, local predicates stay on the build side, and the
      per-probe-row subquery re-execution disappears;
    - {b isolate} — a region of nested-loop cross products, correlated
      join predicates and filters is flattened into a canonical form
      (one lifted conjunction over a left-deep cross-product spine), so
      equi-join conjuncts buried in inner filters or [join_cond]s become
      visible to the planner as an explicit join graph;
    - {b order} — the canonical region is linearised greedily: start
      from the smallest relation, repeatedly attach the cheapest
      connected relation, choosing per edge between a hash join (either
      orientation), a nested loop and an index nested loop by
      {!Cost.plan_cost}; single-relation conjuncts are pushed onto their
      leaf (where the later access-path rewrite turns them into index
      scans) and residual conjuncts apply as soon as their relations are
      joined.

    Every pass is gated on collected statistics exactly like the PR 2
    cost-based rewrites: unless {e all} tables involved have been
    ANALYZEd the pass is the identity, so pre-ANALYZE plans are
    byte-unchanged.  Regions additionally require pairwise-disjoint bare
    column names (so reordered bindings resolve identically), direct
    column references of hash-compatible types on both sides of every
    equi edge (so bucket hashing agrees with {!Value.compare_sql}), and
    a connected join graph (so the greedy linearisation always
    completes). *)

module A = Algebra

(* ------------------------------------------------------------------ *)
(* Catalog helpers                                                     *)
(* ------------------------------------------------------------------ *)

let has_stats db table = Database.table_stats db table <> None

let columns_of db table =
  match Database.table_opt db table with
  | None -> []
  | Some t -> Table.column_names t

let column_type db table col =
  match Database.table_opt db table with
  | None -> None
  | Some t ->
      Array.to_list t.Table.columns
      |> List.find_map (fun c ->
             if c.Table.col_name = col then Some c.Table.col_type else None)

(* May [a] and [b] be hash-join key columns?  Bucket hashing must agree
   with {!Value.compare_sql}: numerics hash through their float image,
   strings as themselves — mixed numeric/string keys (which SQL equality
   coerces) and XML values are rejected. *)
let hash_compatible ta tb =
  match (ta, tb) with
  | Value.(Tint | Tfloat), Value.(Tint | Tfloat) -> true
  | Value.Tstr, Value.Tstr -> true
  | _ -> false

let indexed_columns db table =
  match Database.table_opt db table with
  | None -> []
  | Some t -> List.map (fun i -> i.Table.idx_column) t.Table.indexes

(* ------------------------------------------------------------------ *)
(* Reference analysis                                                  *)
(* ------------------------------------------------------------------ *)

(* Which region relations does [e] reference?  Bare columns attribute to
   the relation owning them (region column names are pairwise disjoint);
   names owned by no region relation are enclosing correlation bindings
   and act as constants.  Subquery bodies are opaque ([A.subplans_of_expr]
   screens them out before classification). *)
let rec expr_refs (rels : (string * string) list) db acc (e : A.expr) : string list =
  let add a acc = if List.mem a acc then acc else a :: acc in
  match e with
  | A.Col (Some a, _) -> if List.mem_assoc a rels then add a acc else acc
  | A.Col (None, c) -> (
      match
        List.find_opt (fun (_, table) -> List.mem c (columns_of db table)) rels
      with
      | Some (a, _) -> add a acc
      | None -> acc)
  | A.Const _ | A.Param _ -> acc
  | A.Binop (_, x, y) -> expr_refs rels db (expr_refs rels db acc x) y
  | A.Not x | A.Is_null x | A.Xml_text x | A.Xml_comment x | A.Xml_pi (_, x) ->
      expr_refs rels db acc x
  | A.Fn (_, args) | A.Xml_concat args ->
      List.fold_left (expr_refs rels db) acc args
  | A.Case (whens, els) ->
      let acc =
        List.fold_left
          (fun acc (c, r) -> expr_refs rels db (expr_refs rels db acc c) r)
          acc whens
      in
      Option.fold ~none:acc ~some:(expr_refs rels db acc) els
  | A.Xml_element (_, attrs, kids) ->
      let acc = List.fold_left (fun acc (_, e) -> expr_refs rels db acc e) acc attrs in
      List.fold_left (expr_refs rels db) acc kids
  | A.Xml_forest fs -> List.fold_left (fun acc (_, e) -> expr_refs rels db acc e) acc fs
  | A.Scalar_subquery _ | A.Exists _ -> acc

let refs rels db e = expr_refs rels db [] e

(* A hash-key side must be a direct column reference of a region
   relation, so its type is statically known. *)
let key_col (rels : (string * string) list) db (e : A.expr) : (string * string) option =
  match e with
  | A.Col (Some a, c) -> if List.mem_assoc a rels then Some (a, c) else None
  | A.Col (None, c) -> (
      match
        List.find_opt (fun (_, table) -> List.mem c (columns_of db table)) rels
      with
      | Some (a, _) -> Some (a, c)
      | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Region detection                                                    *)
(* ------------------------------------------------------------------ *)

type edge = {
  e_a : string;  (** alias of one side *)
  e_ka : A.expr;  (** its key (a direct column reference) *)
  e_ca : string;  (** its key column name *)
  e_b : string;
  e_kb : A.expr;
  e_cb : string;
  e_cond : A.expr;  (** the original conjunct, kept for NL rechecks *)
}

type region = {
  rg_rels : (string * string) list;  (** (alias, table), original order *)
  rg_conjs : A.expr list;  (** every lifted conjunct, original order *)
  rg_locals : (string * A.expr list) list;  (** single-relation conjuncts *)
  rg_edges : edge list;
  rg_residual : A.expr list;  (** multi-relation non-equi conjuncts *)
}

(* Flatten a tree of nested loops and filters over sequential scans into
   relations plus lifted conjuncts; [None] if any node falls outside that
   grammar.  Relation order is the nested-loop driving order, so the
   canonical cross-product spine reproduces the original row order. *)
let rec gather db (p : A.plan) : ((string * string) list * A.expr list) option =
  match p with
  | A.Seq_scan { table; alias } ->
      Option.map (fun _ -> ([ (alias, table) ], [])) (Database.table_opt db table)
  | A.Filter (c, i) ->
      Option.map (fun (rs, cs) -> (rs, Cost.conjuncts c @ cs)) (gather db i)
  | A.Nested_loop { outer; inner; join_cond } -> (
      match (gather db outer, gather db inner) with
      | Some (ro, co), Some (ri, ci) ->
          let jc = match join_cond with None -> [] | Some c -> Cost.conjuncts c in
          Some (ro @ ri, co @ ci @ jc)
      | _ -> None)
  | _ -> None

let distinct xs =
  let rec go = function
    | [] -> true
    | x :: rest -> (not (List.mem x rest)) && go rest
  in
  go xs

(* All relations reachable from the first one over the equi edges? *)
let connected rels edges =
  match rels with
  | [] -> false
  | (a0, _) :: _ ->
      let reached = ref [ a0 ] in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun e ->
            let touch x y =
              if List.mem x !reached && not (List.mem y !reached) then (
                reached := y :: !reached;
                changed := true)
            in
            touch e.e_a e.e_b;
            touch e.e_b e.e_a)
          edges
      done;
      List.length !reached = List.length rels

(** Detect a join region rooted at [p] with every gate satisfied. *)
let region_of db (p : A.plan) : region option =
  match gather db p with
  | None -> None
  | Some (rels, conjs) ->
      let aliases = List.map fst rels in
      let all_cols = List.concat_map (fun (_, t) -> columns_of db t) rels in
      if
        List.length rels < 2
        || (not (distinct aliases))
        || (not (distinct all_cols))
        || not (List.for_all (fun (_, t) -> has_stats db t) rels)
      then None
      else
        let locals = Hashtbl.create 8 in
        let edges = ref [] and residual = ref [] in
        List.iter
          (fun c ->
            let plain = A.subplans_of_expr c = [] in
            match (refs rels db c, c) with
            | [ a ], _ when plain ->
                Hashtbl.replace locals a
                  (c :: (Option.value (Hashtbl.find_opt locals a) ~default:[]))
            | _, A.Binop (A.Eq, x, y) when plain -> (
                match (key_col rels db x, key_col rels db y) with
                | Some (ax, cx), Some (ay, cy)
                  when ax <> ay && refs rels db x = [ ax ] && refs rels db y = [ ay ] -> (
                    match
                      ( column_type db (List.assoc ax rels) cx,
                        column_type db (List.assoc ay rels) cy )
                    with
                    | Some tx, Some ty when hash_compatible tx ty ->
                        edges :=
                          {
                            e_a = ax;
                            e_ka = x;
                            e_ca = cx;
                            e_b = ay;
                            e_kb = y;
                            e_cb = cy;
                            e_cond = c;
                          }
                          :: !edges
                    | _ -> residual := c :: !residual)
                | _ -> residual := c :: !residual)
            | _ -> residual := c :: !residual)
          conjs;
        let edges = List.rev !edges and residual = List.rev !residual in
        if edges = [] || not (connected rels edges) then None
        else
          Some
            {
              rg_rels = rels;
              rg_conjs = conjs;
              rg_locals =
                List.map
                  (fun (a, _) ->
                    (a, List.rev (Option.value (Hashtbl.find_opt locals a) ~default:[])))
                  rels;
              rg_edges = edges;
              rg_residual = residual;
            }

(* ------------------------------------------------------------------ *)
(* Plan traversal                                                      *)
(* ------------------------------------------------------------------ *)

let map_children f (p : A.plan) : A.plan =
  match p with
  | A.Filter (c, i) -> A.Filter (c, f i)
  | A.Project (fs, i) -> A.Project (fs, f i)
  | A.Nested_loop { outer; inner; join_cond } ->
      A.Nested_loop { outer = f outer; inner = f inner; join_cond }
  | A.Hash_join { outer; inner; keys; kind } ->
      A.Hash_join { outer = f outer; inner = f inner; keys; kind }
  | A.Aggregate a -> A.Aggregate { a with input = f a.input }
  | A.Sort (ks, i) -> A.Sort (ks, f i)
  | A.Limit (n, i) -> A.Limit (n, f i)
  | (A.Seq_scan _ | A.Index_scan _ | A.Values _) as leaf -> leaf

(* ------------------------------------------------------------------ *)
(* isolate: canonical region form                                      *)
(* ------------------------------------------------------------------ *)

(* One lifted conjunction over a left-deep cross-product spine in the
   original relation order — row order and name resolution are unchanged
   (left-deep and right-deep cross products enumerate the same
   lexicographic order, and region column names are disjoint). *)
let canonical (r : region) : A.plan =
  let leaf (alias, table) = A.Seq_scan { table; alias } in
  let spine =
    match r.rg_rels with
    | [] -> assert false
    | first :: rest ->
        List.fold_left
          (fun acc rel ->
            A.Nested_loop { outer = acc; inner = leaf rel; join_cond = None })
          (leaf first) rest
  in
  match r.rg_conjs with [] -> spine | cs -> A.Filter (Cost.conjoin cs, spine)

(** Flatten every gated join region into its canonical form. *)
let rec isolate db (p : A.plan) : A.plan =
  match region_of db p with
  | Some r -> canonical r
  | None -> map_children (isolate db) p

(* ------------------------------------------------------------------ *)
(* order: greedy cost-ordered linearisation                            *)
(* ------------------------------------------------------------------ *)

let linearize ?binding db (r : region) : A.plan =
  let leaf_plan alias =
    let table = List.assoc alias r.rg_rels in
    let scan = A.Seq_scan { table; alias } in
    match List.assoc alias r.rg_locals with
    | [] -> scan
    | cs -> A.Filter (Cost.conjoin cs, scan)
  in
  (* residual conjuncts fire as soon as every relation they mention is
     joined (refs outside the region act as constants and never block) *)
  let apply_residuals joined have pending =
    let ready, pending =
      List.partition (fun c -> List.for_all (fun a -> List.mem a have) (refs r.rg_rels db c)) pending
    in
    let joined =
      match ready with [] -> joined | cs -> A.Filter (Cost.conjoin cs, joined)
    in
    (joined, pending)
  in
  (* seed: the relation with the fewest estimated rows after its local
     predicates (ties break on original order) *)
  let seed =
    List.fold_left
      (fun (ba, br) (a, _) ->
        let rows = Cost.estimate_rows ?binding db (leaf_plan a) in
        if rows < br then (a, rows) else (ba, br))
      (let a0 = fst (List.hd r.rg_rels) in
       (a0, Cost.estimate_rows ?binding db (leaf_plan a0)))
      (List.tl r.rg_rels)
    |> fst
  in
  let joined, pending = apply_residuals (leaf_plan seed) [ seed ] r.rg_residual in
  let joined = ref joined and have = ref [ seed ] and pending = ref pending in
  let remaining = ref (List.filter (fun (a, _) -> a <> seed) r.rg_rels) in
  while !remaining <> [] do
    (* candidate steps: every not-yet-joined relation connected to the
       joined set by at least one equi edge *)
    let best = ref None in
    List.iter
      (fun (alias, table) ->
        let es =
          List.filter_map
            (fun e ->
              (* orient each edge as (joined-side key, candidate-side key) *)
              if e.e_a = alias && List.mem e.e_b !have then
                Some (e.e_kb, e.e_ka, e.e_ca, e.e_cond)
              else if e.e_b = alias && List.mem e.e_a !have then
                Some (e.e_ka, e.e_kb, e.e_cb, e.e_cond)
              else None)
            r.rg_edges
        in
        if es <> [] then (
          let lf = leaf_plan alias in
          let keys = List.map (fun (jk, rk, _, _) -> (jk, rk)) es in
          let cond = Cost.conjoin (List.map (fun (_, _, _, c) -> c) es) in
          let indexed = indexed_columns db table in
          let index_nl =
            List.filter_map
              (fun (jk, _, rcol, _) ->
                if List.mem rcol indexed then
                  let probe =
                    A.Index_scan
                      { table; alias; index_column = rcol; lo = A.Incl jk; hi = A.Incl jk }
                  in
                  let inner =
                    match List.assoc alias r.rg_locals with
                    | [] -> probe
                    | cs -> A.Filter (Cost.conjoin cs, probe)
                  in
                  Some (A.Nested_loop { outer = !joined; inner; join_cond = Some cond })
                else None)
              es
          in
          let options =
            [
              A.Hash_join { outer = !joined; inner = lf; keys; kind = A.Inner };
              A.Hash_join
                {
                  outer = lf;
                  inner = !joined;
                  keys = List.map (fun (jk, rk) -> (rk, jk)) keys;
                  kind = A.Inner;
                };
              A.Nested_loop { outer = !joined; inner = lf; join_cond = Some cond };
            ]
            @ index_nl
          in
          List.iter
            (fun p ->
              let c = Cost.plan_cost ?binding db p in
              match !best with
              | Some (_, _, bc) when bc <= c -> ()
              | _ -> best := Some (alias, p, c))
            options))
      !remaining;
    match !best with
    | None ->
        (* unreachable: the gate requires a connected graph *)
        remaining := []
    | Some (alias, p, _) ->
        have := alias :: !have;
        remaining := List.filter (fun (a, _) -> a <> alias) !remaining;
        let j, pd = apply_residuals p !have !pending in
        joined := j;
        pending := pd
  done;
  (match !pending with
  | [] -> ()
  | cs -> joined := A.Filter (Cost.conjoin cs, !joined));
  !joined

(** Replace every gated join region with its greedy linearisation. *)
let rec order ?binding db (p : A.plan) : A.plan =
  match region_of db p with
  | Some r -> linearize ?binding db r
  | None -> map_children (order ?binding db) p

(* ------------------------------------------------------------------ *)
(* unnest: EXISTS / NOT EXISTS → Semi / Anti hash join                 *)
(* ------------------------------------------------------------------ *)

(* The relations a plan's output rows bind — the probe side's visible
   scans (projections and aggregates replace bindings; semi/anti joins
   pass probe rows through). *)
let rec bound_rels db (p : A.plan) : (string * string) list =
  match p with
  | A.Seq_scan { table; alias } | A.Index_scan { table; alias; _ } -> [ (alias, table) ]
  | A.Filter (_, i) | A.Sort (_, i) | A.Limit (_, i) -> bound_rels db i
  | A.Nested_loop { outer; inner; _ }
  | A.Hash_join { outer; inner; kind = A.Inner | A.Left_outer; _ } ->
      bound_rels db inner @ bound_rels db outer
  | A.Hash_join { outer; kind = A.Semi | A.Anti; _ } -> bound_rels db outer
  | A.Project _ | A.Aggregate _ | A.Values _ -> []

(* Attempt to turn one [EXISTS (σ(pc) scan)] conjunct over [input] into a
   Semi/Anti hash join.  Returns the join plus conjuncts hoisted out of
   the subquery (Semi only: ∃x.(P ∧ B(x)) ≡ P ∧ ∃x.B(x) when P is
   independent of x). *)
let try_unnest db (input : A.plan) (sub : A.plan) (kind : A.join_kind) :
    (A.plan * A.expr list) option =
  let sub_parts =
    match sub with
    | A.Seq_scan { table; alias } -> Some (table, alias, [])
    | A.Filter (pc, A.Seq_scan { table; alias }) -> Some (table, alias, Cost.conjuncts pc)
    | _ -> None
  in
  match sub_parts with
  | None -> None
  | Some (stable, salias, pcs) -> (
      let probe_rels = bound_rels db input in
      if
        pcs = []
        || (not (has_stats db stable))
        || probe_rels = []
        || (not (List.for_all (fun (_, t) -> has_stats db t) probe_rels))
        || List.mem_assoc salias probe_rels
      then None
      else
        let srel = [ (salias, stable) ] in
        let refs_sub e = refs srel db e <> [] in
        (* classify the subquery's conjuncts *)
        let rec classify keys locals hoisted = function
          | [] -> if keys = [] then None else Some (List.rev keys, List.rev locals, List.rev hoisted)
          | c :: rest ->
              let plain = A.subplans_of_expr c = [] in
              if not (refs_sub c) then
                (* references no subquery column *)
                if plain && kind = A.Semi then classify keys locals (c :: hoisted) rest
                else None
              else
                let as_edge =
                  match c with
                  | A.Binop (A.Eq, x, y) when plain -> (
                      let pick sside oside =
                        (* sub side must be a direct sub column; other side
                           must not touch the sub relation and must be a
                           direct probe column of compatible type *)
                        match (key_col srel db sside, key_col probe_rels db oside) with
                        | Some (_, sc), Some (oa, oc) when not (refs_sub oside) -> (
                            match
                              ( column_type db stable sc,
                                column_type db (List.assoc oa probe_rels) oc )
                            with
                            | Some ts, Some tp when hash_compatible ts tp ->
                                Some (oside, sside)
                            | _ -> None)
                        | _ -> None
                      in
                      match pick x y with Some _ as r -> r | None -> pick y x)
                  | _ -> None
                in
                match as_edge with
                | Some key -> classify (key :: keys) locals hoisted rest
                | None ->
                    (* stays on the build side only if it references the
                       subquery (and possibly enclosing constants) but no
                       probe relation *)
                    if plain && refs probe_rels db c = [] then
                      classify keys (c :: locals) hoisted rest
                    else None
        in
        match classify [] [] [] pcs with
        | None -> None
        | Some (keys, locals, hoisted) ->
            let build =
              let scan = A.Seq_scan { table = stable; alias = salias } in
              match locals with [] -> scan | cs -> A.Filter (Cost.conjoin cs, scan)
            in
            Some (A.Hash_join { outer = input; inner = build; keys; kind }, hoisted))

(** Rewrite [EXISTS]/[NOT EXISTS] filter conjuncts into Semi/Anti hash
    joins, bottom-up. *)
let rec unnest db (p : A.plan) : A.plan =
  let p = map_children (unnest db) p in
  match p with
  | A.Filter (cond, input) ->
      let step (input, residual) c =
        let attempt sub kind =
          match try_unnest db input sub kind with
          | Some (hj, hoisted) -> (hj, residual @ hoisted)
          | None -> (input, residual @ [ c ])
        in
        match c with
        | A.Exists sub -> attempt sub A.Semi
        | A.Not (A.Exists sub) -> attempt sub A.Anti
        | c -> (input, residual @ [ c ])
      in
      let input, residual = List.fold_left step (input, []) (Cost.conjuncts cond) in
      (match residual with [] -> input | cs -> A.Filter (Cost.conjoin cs, input))
  | p -> p
