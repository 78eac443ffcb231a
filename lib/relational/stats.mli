(** Per-operator runtime statistics for the Volcano executor: one
    [op_stats] record per plan node (keyed by physical identity),
    accumulated by {!Exec.run_analyzed} and rendered by
    {!Optimizer.explain_analyze}. *)

type op_stats = {
  mutable loops : int;  (** times the operator was executed *)
  mutable rows : int;  (** total rows produced across all loops *)
  mutable btree_probes : int;  (** B-tree descents (index scans) *)
  mutable btree_nodes : int;  (** B-tree nodes visited during probes *)
  mutable heap_rows : int;  (** heap rows fetched (scan operators) *)
  mutable build_rows : int;  (** rows hashed into the build table (hash join) *)
  mutable probe_hits : int;  (** matches found while probing (hash join) *)
  mutable presorted : int;
      (** ORDER BY inputs already in key order, so the sort was skipped
          (Sort opens, XMLAgg ORDER BY groups of an Aggregate) *)
  mutable sorted : int;  (** ORDER BY inputs that had to be sorted *)
  mutable time_ms : float;  (** inclusive wall time, milliseconds *)
}

type entry = { id : int; label : string; node : Algebra.plan; op : op_stats }

type t

val create : Algebra.plan -> t
(** One entry per operator, pre-order, descending into correlated
    subqueries nested inside expressions. *)

val find : t -> Algebra.plan -> op_stats option
(** Stats of a node by physical identity; [None] for foreign nodes. *)

val entries : t -> entry list
(** All entries in pre-order (root first). *)

val root_rows : t -> int
(** Rows produced by the root operator. *)

val rows_signature : t -> (string * int) list
(** [(label, actual rows)] per operator, pre-order — equal signatures
    mean two executions agreed on every per-operator actual row count. *)

val label_of_plan : Algebra.plan -> string
(** Short operator label ("IndexScan rows(id)", "Filter", …). *)

val annotation : op_stats -> string
(** One-line [actual=… loops=… time=…] rendering for EXPLAIN ANALYZE. *)

val to_json : t -> string
(** Stable JSON array of per-operator stats, pre-order. *)
