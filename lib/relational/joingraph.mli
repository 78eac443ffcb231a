(** Join-graph isolation and set-oriented join planning: three
    stats-gated plan passes run by {!Optimizer.optimize} before the
    bottom-up access-path rewrite.  Without collected statistics every
    pass is the identity, so pre-ANALYZE plans are byte-unchanged. *)

val unnest : Database.t -> Algebra.plan -> Algebra.plan
(** Rewrite [EXISTS]/[NOT EXISTS] filter conjuncts whose subquery is a
    (filtered) single-table scan correlated only through hash-compatible
    equality conjuncts into [Semi]/[Anti] {!Algebra.Hash_join}s.  Local
    subquery predicates stay on the build side; [Semi] conjuncts
    independent of the subquery hoist out ([∃x.(P ∧ B(x)) ≡ P ∧ ∃x.B(x)]);
    anything else leaves the conjunct untouched. *)

val isolate : Database.t -> Algebra.plan -> Algebra.plan
(** Flatten each gated region of nested loops and filters over
    sequential scans into canonical form: one lifted conjunction over a
    left-deep cross-product spine in the original relation order (same
    row order, same name resolution).  Gates: ≥ 2 relations, all tables
    ANALYZEd, distinct aliases, pairwise-disjoint bare column names,
    ≥ 1 equi edge with direct column keys of hash-compatible types, and
    a connected join graph. *)

val order : ?binding:Cost.binding -> Database.t -> Algebra.plan -> Algebra.plan
(** Linearise each gated region greedily: seed with the smallest
    relation, then repeatedly attach the connected relation whose
    cheapest step — hash join in either orientation, nested loop, or
    index nested loop on an indexed join column — minimises
    {!Cost.plan_cost}.  Single-relation conjuncts are pushed onto their
    leaves; residual conjuncts apply as soon as their relations are
    joined. *)
