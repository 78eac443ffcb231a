(** Cost model and cardinality estimation for the optimizer.

    Selectivities come from {!Colstats} (histograms, MCVs, NDV) when the
    table has been ANALYZEd, falling back to the System-R defaults (1/10
    equality, 1/3 range, 1/4 other) otherwise — with no statistics
    collected, every estimate matches the rule-based optimizer exactly. *)

(** {2 Predicate analysis} *)

val conjuncts : Algebra.expr -> Algebra.expr list
(** Split a conjunction into its conjuncts. *)

val conjoin : Algebra.expr list -> Algebra.expr
(** Rebuild a conjunction; [conjoin []] is the constant true. *)

val sargable : string -> Algebra.expr -> (string * Algebra.binop * Algebra.expr) option
(** Is the expression a sargable comparison over a bare/base column of the
    given alias?  Returns (column, op, constant-side expr); parameters
    and references to {e other} aliases count as constant (outer
    correlation). *)

val bounds_of : Algebra.binop -> Algebra.expr -> Algebra.bound * Algebra.bound
(** B-tree range bounds for [col op rhs]. *)

(** {2 Plan parameters}

    A plan parameter ({!Algebra.Param}) stands for a literal: every rule
    that treats a [Const] specially treats a [Param] the same way.  The
    one place an estimate reads a literal's value — a column-statistics
    selectivity — reads a parameter's through a {!binding} and logs the
    read, so a later binding can {!replays} the log instead of
    optimising again. *)

type estimator = Sel_eq | Sel_lt | Sel_le
(** {!Colstats.selectivity_eq}, [_lt], [_le]. *)

type read = {
  slot : int;  (** the parameter read *)
  estimator : estimator;
  stats : Colstats.t;  (** the column statistics it was read against *)
  result : float;
}

type binding
(** Parameter values plus the log of their reads.  Mutable and private
    to one optimiser run: callers make one per run, never share it. *)

val binding : Value.t array -> binding
(** A fresh binding of parameter [i] to the [i]th value, with an empty log. *)

val reads : binding -> read list
(** The reads logged so far, oldest first. *)

val replays : read list -> Value.t array -> bool
(** Does every logged read give a bit-identical result for these values? *)

(** {2 Default (no-stats) selectivities} *)

val eq_selectivity : float
val range_selectivity : float
val default_selectivity : float
val default_conjunct_selectivity : Algebra.expr -> float

(** {2 Stats-aware estimation} *)

val conjunct_selectivity :
  ?binding:binding -> Database.t -> table:string -> alias:string -> Algebra.expr -> float
(** Selectivity of one conjunct over rows of [table] scanned as [alias]:
    histogram/MCV-based when sargable with collected stats, the System-R
    default otherwise. *)

val estimate_rows : ?binding:binding -> Database.t -> Algebra.plan -> float
(** Stats-aware cardinality estimate (defaults when stats are absent);
    [binding] supplies the values of the plan's parameters. *)

val estimate_rows_default : Database.t -> Algebra.plan -> float
(** Estimate using only the System-R defaults, ignoring collected stats —
    the pre-ANALYZE baseline, used for q-error comparison in benches. *)

val plan_cost : ?binding:binding -> Database.t -> Algebra.plan -> float
(** Estimated execution cost in abstract units (one heap-row fetch = 1);
    correlated subqueries are charged once per input row. *)
