(** SQL/XML publishing specs and XMLType views.

    A publishing spec describes how an XMLType view column is generated
    from relational data (paper Table 3).  It is used three ways:
    materialisation (the functional baseline's input), structural
    information (the partial evaluator's [X]), and as the navigation
    target of the XQuery→SQL/XML rewrite (paper Tables 7/11). *)

type spec =
  | Elem of { name : string; attrs : (string * Algebra.expr) list; content : spec list }
      (** [XMLElement(name, XMLAttributes(...), content...)] *)
  | Text_col of string  (** text content from a column of the current scope *)
  | Text_expr of Algebra.expr
  | Text_const of string
  | Agg of {
      table : string;
      alias : string;
      correlate : (string * string) list;
          (** (inner column, outer column) equi-correlations *)
      where : Algebra.expr option;
      order_by : (string * Algebra.order_dir) list;
      body : spec;
    }  (** correlated scalar subquery with [XMLAgg] *)

type view = {
  view_name : string;
  base_table : string;
  base_alias : string;
  column : string;  (** name of the XMLType output column *)
  spec : spec;  (** one document per base-table row *)
}

exception Publish_error of string

val materialize : Database.t -> view -> Xdb_xml.Types.node list
(** One XML document (a document node) per base-table row, in table
    order — the input of the functional (no-rewrite) evaluation.  The
    spec's expressions (attribute values, [Text_expr], [Agg] WHERE) are
    compiled once per call ({!Exec.compile_expr}); its [Agg] scans probe
    a B-tree on a correlation column when one exists. *)

val documents : Database.t -> view -> (Xdb_xml.Events.sink -> unit) list
(** One emitter per base row, in table order: applied to a sink, it
    streams that row's document into it.  The spec compiles once, and
    the emitters keep no scratch state, so they may run on several
    domains at once (a publish split over a domain pool). *)

val serialize :
  ?meth:Xdb_xml.Events.output_method ->
  ?indent:bool ->
  Buffer.t ->
  (Xdb_xml.Events.sink -> unit) ->
  string
(** [serialize buf emit] — one emitter's document, serialized through
    [buf] (cleared first).  Defaults: [meth = Xml], [indent = false]. *)

val materialize_serialized :
  Database.t -> ?meth:Xdb_xml.Events.output_method -> ?indent:bool -> view -> string list
(** The documents of {!materialize}, already serialized: each emitter of
    {!documents} streams into one reused buffer, one string per base
    row, no intermediate tree.  Defaults: [meth = Xml],
    [indent = false]. *)

val to_schema : view -> Xdb_schema.Types.t
(** Structural information of the published documents: scalar content has
    cardinality one, [Agg] bodies are unbounded, children form [sequence]
    model groups (paper §3.2, bullet 2). *)

val spec_elem_name : spec -> string option
(** Element name a spec publishes, if it publishes a single element. *)

val child_specs : spec -> spec list
(** Content specs of a located element. *)

val navigate : spec -> string -> spec option
(** Child spec publishing the given element name. *)

val scalar_column : spec -> string option
(** The column bound as the sole text content of an element, if any. *)

val view_tables : view -> string list
(** Base tables the view's materialisation reads (base table, [Agg]
    subquery tables, tables of embedded algebra subplans), deduplicated —
    the data-version dependencies of a cached publish result. *)

(** Catalog of views alongside a database: *)

type catalog

val create_catalog : Database.t -> catalog

val register : catalog -> view -> unit
(** Register a view under its name (O(1)).
    @raise Publish_error if a view of that name is already registered —
    evolution replaces views through {!Xdb_core.Registry}, not by silent
    shadowing here. *)

val find_view : catalog -> string -> view option

val catalog_views : catalog -> view list
(** All registered views, in registration order. *)

val catalog_db : catalog -> Database.t
