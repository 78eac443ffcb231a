(** Deterministic workload generators for the XSLTMark-style suite: the
    shapes the paper's evaluation depends on, at laptop scale, in both
    standalone-document and database+publishing-view form (identical
    content by construction — same seeded generator). *)

val lcg : int -> int -> int
(** [lcg seed] — deterministic pseudo-random generator; [lcg seed bound]
    draws values in [0, bound). *)

type dbview = { db : Xdb_rel.Database.t; view : Xdb_rel.Publish.view }

(** Flat record table ([<table><row><id/><name/><value/><category/>…]):
    dbonerow/dbaccess and most construction cases.  The database form
    indexes [id], [value] and [category]. *)

val records_doc : int -> Xdb_xml.Types.node

val records_db : ?docs:int -> int -> dbview
(** [docs] (default 1) shards the rows across that many base-table rows,
    one published document each — the many-documents XMLType-column shape
    domain-parallel execution splits by document.  [docs = 1] publishes exactly
    [records_doc n]. *)

val dbonerow_target : int -> int
(** The row id dbonerow's predicate selects at a given size (middle row). *)

(** Sales hierarchy ([<sales><region><name/><item>…]): the aggregate cases
    (chart/total). *)

val sales_doc : int -> int -> Xdb_xml.Types.node

val sales_db : ?docs:int -> int -> int -> dbview
(** [docs] as in {!records_db}: regions sharded across that many
    [salesdoc] base rows. *)

(** dept/emp master-detail (paper Example 1), [sal] and [deptno] indexed. *)

val dept_emp_db : int -> int -> dbview

val text_doc : int -> Xdb_xml.Types.node
(** Paragraphs of pseudo-random words (string/output cases). *)

val tree_doc : depth:int -> width:int -> Xdb_xml.Types.node
(** Recursive [<node>] tree (recursion cases; recursive schema). *)

val numbers_doc : int -> Xdb_xml.Types.node
(** Flat list of small numbers (recursion-with-parameters cases). *)
