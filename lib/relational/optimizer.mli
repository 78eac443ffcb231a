(** Plan optimisation: B-tree index selection for sargable predicates
    (paper §2.1), conjunct splitting / filter merging, rename-aware
    filter and limit pushdown below projections, and — once statistics
    have been collected with ANALYZE — the set-oriented join pipeline
    ({!Joingraph}: EXISTS unnesting into semi/anti hash joins, join-graph
    isolation, greedy cost-ordered linearisation over hash / nested-loop
    / index nested-loop steps) plus cost-based access-path choice via the
    {!Cost} model.  With no statistics collected the rewrites are purely
    rule-based and produce exactly the pre-ANALYZE plans. *)

val conjuncts : Algebra.expr -> Algebra.expr list
(** Split a conjunction into its conjuncts. *)

val conjoin : Algebra.expr list -> Algebra.expr
(** Rebuild a conjunction; [conjoin [] ] is the constant true. *)

val estimate_rows : Database.t -> Algebra.plan -> float
(** Stats-aware cardinality estimate ({!Cost.estimate_rows}): histograms /
    MCVs / NDV after ANALYZE, System-R defaults otherwise; used by
    EXPLAIN output and tests. *)

val optimize :
  ?timer:(string -> (unit -> Algebra.plan) -> Algebra.plan) ->
  ?binding:Cost.binding ->
  Database.t ->
  Algebra.plan ->
  Algebra.plan
(** Apply the {!Joingraph} passes then the bottom-up rewrite rules to one
    plan tree (does not descend into expressions).  [timer name f] wraps
    each optimisation pass ([opt_unnest], [opt_isolate], [opt_order],
    [opt_rewrite]) so callers can record per-pass planning time.
    [binding] gives the cost model the values of the plan's parameters
    ({!Cost.binding}), which stay [Param] leaves in the result. *)

val optimize_deep :
  ?timer:(string -> (unit -> Algebra.plan) -> Algebra.plan) ->
  ?binding:Cost.binding ->
  Database.t ->
  Algebra.plan ->
  Algebra.plan
(** [optimize] plus recursion into correlated subqueries nested inside
    expressions — what the XQuery→SQL/XML rewrite output needs. *)

val explain_with_estimates : Database.t -> Algebra.plan -> string
(** {!Algebra.explain} output with per-operator [est=N] annotations,
    prefixed with the root cardinality estimate. *)

val explain_analyze : Database.t -> Algebra.plan -> Stats.t -> string
(** EXPLAIN ANALYZE rendering: per-operator estimated vs actual rows,
    loops, B-tree probe / heap row counts and inclusive wall time.  The
    collector comes from {!Exec.run_analyzed} over the same plan tree. *)
