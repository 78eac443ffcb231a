(** XQuery → SQL/XML rewrite over a published XMLType view (paper §2.1,
    Tables 7 and 11; the [3,4] machinery the paper builds on).

    Path steps resolve statically into the publishing spec; crossing an
    [XMLAgg] introduces a correlated subquery over the detail table; XPath
    value predicates become relational predicates eligible for B-tree
    probes.  Queries outside the supported fragment raise
    {!Not_rewritable}; the pipeline then falls back to dynamic XQuery
    evaluation over the materialised document. *)

exception Not_rewritable of string

val rewrite_prog : Xdb_rel.Database.t -> Xdb_rel.Publish.view -> Ast.prog -> Xdb_rel.Algebra.expr
(** The per-row SQL/XML expression equivalent to running the program with
    one view document as context item.  The database's column types
    decide where a comparison follows XPath's string/number rules
    instead of SQL's casts.
    @raise Not_rewritable outside the supported fragment. *)

val param_prefix : string
(** ["xdb-p"]: the prefix of the reserved parameter variables. *)

val param_var : int -> string
(** [param_var i] — the reserved variable name ([xdb-p<i>]) standing for
    plan parameter [i]: the rewrite turns a reference to it into
    [Xdb_rel.Algebra.Param i], classed like an integer constant. *)

val param_of_var : string -> int option
(** [param_of_var v] — [Some i] when [v] is [param_var i]. *)

val view_plan : Xdb_rel.Database.t -> Xdb_rel.Publish.view -> Ast.prog -> Xdb_rel.Algebra.plan
(** The plan producing one [result] XML column per base-table row, not
    yet optimised; parameters stay [Param] leaves.
    @raise Not_rewritable outside the supported fragment. *)

val rewrite_view_plan :
  ?timer:(string -> (unit -> Xdb_rel.Algebra.plan) -> Xdb_rel.Algebra.plan) ->
  Xdb_rel.Database.t ->
  Xdb_rel.Publish.view ->
  Ast.prog ->
  Xdb_rel.Algebra.plan
(** Full relational plan: one [result] XML column per base-table row,
    optimised (index selection on pushed-down predicates).  [timer] wraps
    each optimiser pass ({!Xdb_rel.Optimizer.optimize}) so callers can
    record per-pass planning time. *)
