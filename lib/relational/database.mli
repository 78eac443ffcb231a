(** Table catalog, plus the column-statistics catalog filled by ANALYZE
    and the per-table data versions bumped by DML.

    Concurrency contract (audited for domain-parallel execution): the
    catalog Hashtbls mutate only through {!create_table} /
    {!set_table_stats} / {!bump_data_version} / {!log_update} — i.e. during load, ANALYZE
    and DML statements, all of which the engine runs on its writer side
    (no transform executes concurrently with them).  Between writes the
    catalog, every {!Table.t} (rows, indexes) and every
    {!Colstats.table_stats} record are read-only, so executor domains
    read them without locks.  The one read-path exception, the B-tree
    probe counters, is handled inside {!Btree} with atomics. *)

type t

exception Unknown_table of string

val create : unit -> t

val create_table : t -> string -> Table.column list -> Table.t
(** Create (or replace) a table in the catalog; replacing drops any
    statistics collected for the old table and bumps the table's data
    version (its rows changed wholesale). *)

val table : t -> string -> Table.t
(** @raise Unknown_table when absent. *)

val table_opt : t -> string -> Table.t option

val table_names : t -> string list
(** Sorted list of registered table names. *)

val stats_version : t -> int
(** Monotonic stamp bumped whenever statistics change; the plan registry
    keys compiled plans on it so re-ANALYZE invalidates stale plans. *)

val data_version : t -> string -> int
(** Monotonic per-table stamp, 0 until the table is first written.
    Bumped by every effective DML statement (and by table replacement);
    the result cache validates served transform output against the data
    versions of every table the plan read. *)

val bump_data_version : t -> string -> unit
(** Record that [table]'s rows changed: bump its data version and mark
    its statistics stale (without touching [stats_version] — plans keep
    their cost-gated behavior until the next ANALYZE). *)

val log_update : t -> string -> rids:int array -> columns:string list -> unit
(** {!bump_data_version} for an UPDATE that overwrote [columns] of the
    rows [rids] in place, and nothing else: the new version's entry in
    the table's change log.  Every other bump ({!bump_data_version},
    {!create_table}) logs its version as an unknown change. *)

val changes_since : t -> string -> int -> (int array * string list) list option
(** [changes_since db table v] — the (rows, columns) of every UPDATE that
    made the versions after [v], oldest first ([Some []] when the
    version has not moved); [None] when one of them was not such an
    UPDATE (an INSERT, a DELETE, a replacement) or the fixed-size log no
    longer holds it. *)

val stats_stale : t -> string -> bool
(** Has the table been written since its statistics were collected?
    Cleared by {!set_table_stats} (ANALYZE). *)

val set_table_stats : t -> string -> Colstats.table_stats -> unit
(** Store statistics for a table, bumping [stats_version], stamping it
    into the record and clearing the table's staleness mark. *)

val table_stats : t -> string -> Colstats.table_stats option
val column_stats : t -> string -> string -> Colstats.t option

val clear_stats : t -> unit
(** Drop all collected statistics (bumps [stats_version] if any existed). *)
