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
    [Seq_scan]/[Index_scan] behind [Filter]s, and its member expression
    is markup (constructors, constants, CASE, XMLConcat).  Two kinds of
    UPDATE leave the member set and its order as they were:

    - one of the driving table in columns read nowhere but by the member
      expression, and no inner table's key, when the driving table is
      scanned nowhere else (correlated subplans included): it changes
      exactly the updated rows' members;
    - one of an {e inner} table that only the member scans, every scan
      keyed by equality on a column of the driving row (an index probe
      at [driving.d], or a filter conjunct [inner.c = driving.d]), in
      columns other than those keys: it changes exactly the members
      whose driving row's [d] equals an updated row's [c].

    Anything else (nested correlation, correlation on the aggregate's
    environment, an inner table read by the filter or order or outside
    the member) recomputes. *)

type members = {
  agg : Algebra.agg;  (** the patchable XMLAgg, physically the plan's node *)
  table : string;  (** its driving table *)
  fixed : string list;
      (** the driving table's columns read outside the member, and its
          columns an inner table is keyed on *)
  alone : bool;  (** the driving table is scanned by the driving scan only *)
  inner : (string * (string * string) list) list;
      (** per inner table, its (column, driving column) keys *)
}

type t = { reads : (string * string list) list; members : members option }

val of_plan : Algebra.plan -> t

type verdict =
  | Irrelevant  (** the plan reads none of the columns *)
  | Driving  (** only the updated driving rows' members read them *)
  | Correlated of (string * string) list
      (** an inner table's: only the members it reaches by these keys read them *)
  | Recompute

val classify : t -> table:string -> string list -> verdict
(** What an UPDATE of these columns of [table] means for an output of the plan. *)

val describe : t -> (string * string list) list -> string
(** One line per (table, column) given: what an UPDATE of that column
    alone does to a cached output — keep, patch (driving, or correlated
    with its keys) or recompute. *)

type memo
(** A plan's footprint, computed on first use: plans compiled for one
    request never walk for it.  Safe to share across domains (unlike
    [Lazy.t]). *)

val memo : Algebra.plan -> memo
val get : memo -> t
