(** SQL values, including the XMLType of SQL/XML.  [Xml] carries a node
    {e forest} so [XMLConcat]/[XMLAgg] results are first-class. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Xml of Xdb_xml.Types.node list
  | Xml_stream of (Xdb_xml.Events.sink -> unit)
      (** streamed XMLType: a producer that replays the forest as output
          events on demand — no DOM is ever built unless the consumer
          asks for one via {!stream_to_nodes} *)

type column_type = Tint | Tfloat | Tstr | Txml

val type_name : column_type -> string
val value_type_name : t -> string

exception Type_error of string

val to_int : t -> int
(** @raise Type_error on non-numeric values. *)

val to_float : t -> float

val float_to_string : float -> string
(** Float → string matching XPath 1.0 [string(number)]. *)

val stream_to_nodes : (Xdb_xml.Events.sink -> unit) -> Xdb_xml.Types.node list
(** Materialize a streamed XMLType producer into a node forest. *)

val to_string : t -> string
(** SQL→text conversion; floats print in XPath number format so SQL results
    compare equal with XQuery-evaluated results; NULL prints empty; XML
    serializes. *)

val is_null : t -> bool
val is_nan : t -> bool

val compare_sql : t -> t -> int option
(** SQL three-valued comparison: [None] when either side is NULL.
    @raise Type_error for XMLType operands. *)

val compare_key : t -> t -> int
(** Total order for B-tree keys: NULLs first, numerics before strings. *)

val equal_sql : t -> t -> bool

val show : t -> string
(** Rendering for EXPLAIN / test display (strings quoted). *)
