(** The 40-test-case suite, named after XSLTMark's functional areas (the
    original DataPower distribution is no longer available; DESIGN.md §2
    records the substitution argument). *)

type data_shape = Records | Sales | Dept_emp | Text | Tree | Numbers

type case = {
  name : string;
  category : string;
  description : string;
  shape : data_shape;
  stylesheet : string;
  expect_inline : bool;  (** full-inline expected (the paper's 23/40 stat) *)
  db_capable : bool;  (** meaningful as a DB-backed rewrite benchmark *)
}

val all : case list
(** Exactly forty cases; 23 expect inline mode. *)

val extras : case list
(** Additional cases beyond the forty (extra coverage in tests). *)

val find : string -> case option

val doc_for : case -> int -> Xdb_xml.Types.node
(** Standalone document for a case at a given size (row count). *)

val dbview_for : ?docs:int -> case -> int -> Data.dbview
(** Database + publishing view for a [db_capable] case.  [docs]
    (default 1) shards Records/Sales data across that many base-table
    rows — one published document each — so domain-parallel runs have
    documents to split (Dept_emp shapes already publish one document
    per dept).
    @raise Invalid_argument for cases without a database form. *)

val dbonerow_for : int -> case
(** Size-parameterised dbonerow (the predicate targets the middle row). *)

val dbonerow : case
val dbonerow_stylesheet : int -> string
