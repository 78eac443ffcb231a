(** What a plan reads, computed once per compiled plan: how the result
    cache judges the UPDATEs logged since it stored an output
    ({!Database.changes_since}).

    [reads] holds, per table the plan scans, every column it reads
    anywhere: filters, index columns, correlation and join keys, order
    and group keys, constructed values, correlated subplans.  A column
    named without a table alias counts against every table.  An UPDATE
    whose columns miss its table's set cannot change the output.

    [members] is the one shape a point write can patch: the plan's only
    XMLAgg aggregates, with no GROUP BY, the rows of one driving
    [Seq_scan]/[Index_scan] behind [Filter]s; its member expression is
    markup (constructors, constants, CASE, XMLConcat); and the driving
    table is scanned nowhere else, correlated subplans included.  An
    UPDATE of that table in columns read nowhere but by the member
    expression leaves the member set and its order as they were and
    changes exactly the updated rows' members. *)

type members = {
  agg : Algebra.agg;  (** the patchable XMLAgg, physically the plan's node *)
  table : string;  (** its driving table *)
  fixed : string list;  (** the driving table's columns read outside the member *)
}

type t = { reads : (string * string list) list; members : members option }

val of_plan : Algebra.plan -> t

type verdict =
  | Irrelevant  (** the plan reads none of the columns *)
  | Members  (** only the patchable members read them *)
  | Recompute

val classify : t -> table:string -> string list -> verdict
(** What an UPDATE of these columns of [table] means for an output of the plan. *)

type memo
(** A plan's footprint, computed on first use: plans compiled for one
    request never walk for it.  Safe to share across domains (unlike
    [Lazy.t]). *)

val memo : Algebra.plan -> memo
val get : memo -> t
