(** Execution of the plain-relational SQL surface: base-table SELECTs on
    the Volcano executor, ANALYZE, and INSERT/UPDATE/DELETE with B-tree
    index maintenance, two-phase validation and per-table [data_version]
    bumps.  Statements over XMLType/XSLT views route through
    [Xdb_core.Sql_front], which builds on the translation helpers
    exported here — the dependency points from the core facade down into
    this library. *)

exception Sql_error of string

type result = {
  columns : string list;
  rows : Xdb_rel.Value.t list list;
  note : string option;  (** execution-strategy remark (rewrite/fallback) *)
}

(** {1 Translation helpers} (shared with [Xdb_core.Sql_front]) *)

val plain_expr : Ast.expr -> Xdb_rel.Algebra.expr
(** Scalar translation to the relational algebra.
    @raise Sql_error on [*] or XML functions. *)

val item_name : int -> Ast.expr * string option -> string
(** Output-column name of the [i]-th select item ([AS] alias, column
    name, or [col<i+1>]). *)

val is_view_column : Xdb_rel.Publish.view -> string -> Ast.expr -> bool
(** [is_view_column view from_alias e] — is [e] a reference to the
    view's XMLType column (optionally qualified by the FROM alias or
    the view name)? *)

(** {1 Statement execution} *)

val run_table_select : Xdb_rel.Database.t -> Xdb_rel.Table.t -> Ast.select -> result
(** Single-table SELECT through [Optimizer.optimize_deep] and the batch
    executor; the note carries the optimised plan's SQL rendering. *)

val run_analyze : Xdb_rel.Database.t -> string option -> result
(** [ANALYZE [table]] — one table or the whole catalog. *)

val run_dml : Xdb_rel.Database.t -> Ast.statement -> result
(** Execute one INSERT/UPDATE/DELETE against its target table, with
    index maintenance and a [data_version] bump when at least one row
    changed.  UPDATE and DELETE pick their rows with an optimised plan
    on the compiled executor (a keyed WHERE is an index probe), which
    also evaluates SET and VALUES expressions, with the executor's
    semantics.  Validation is two-phase: column positions, arities,
    expression evaluation and value types are all done {e before} the
    first row mutates, so a failed statement leaves the table and its
    data version untouched.  The result is one [rows_affected] row; the
    note reports the table's new data version (and whether its
    statistics went stale) and, for UPDATE/DELETE, the selection plan.
    @raise Sql_error / [Table_error] on validation failures;
    [Invalid_argument] if the statement is not DML. *)

val render : result -> string
(** Fixed-width rendering for CLI/example output, note included. *)
