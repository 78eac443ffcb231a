(** XPath 1.0 value model and type conversions (XPath 1.0 §3.2, §4). *)

type t =
  | Nodes of Xdb_xml.Types.node list
      (** node-set in document order, duplicates removed *)
  | Bool of bool
  | Num of float
  | Str of string

val type_name : t -> string

val sort_nodes : Xdb_xml.Types.node list -> Xdb_xml.Types.node list
(** Document-order sort + physical deduplication. *)

val nodes : Xdb_xml.Types.node list -> t
(** Node-set constructor ({!sort_nodes} applied). *)

val format_int : int -> string
(** [format_int n] is [string_of_int n], written without C printf:
    one allocation of exactly the result's length; [min_int] safe. *)

val string_of_number : float -> string
(** XPath number→string (§4.2): integers bare (through {!format_int}),
    both zeros as ["0"], NaN/Infinity spelled out. *)

val number_of_string : string -> float
(** XPath string→number (§4.4): optional XML whitespace around an
    optional [-] and [Digits ('.' Digits?)? | '.' Digits]; NaN for
    anything else, exponents, [+], hex and [inf] included. *)

val round_number : float -> float
(** XPath 1.0 §4.4 [round()]: half rounds up, except that arguments in
    [[-0.5, 0)] return negative zero; NaN, ±∞ and ±0 pass through. *)

val string_value : t -> string
(** The [string()] conversion (first node's string-value for node-sets). *)

val number_value : t -> float
(** The [number()] conversion. *)

val boolean_value : t -> bool
(** The [boolean()] conversion. *)

val node_set : t -> Xdb_xml.Types.node list
(** @raise Invalid_argument when the value is not a node-set. *)

val compare_values : [ `Eq | `Neq | `Lt | `Leq | `Gt | `Geq ] -> t -> t -> bool
(** XPath 1.0 §3.4 comparison semantics, existential over node-sets. *)
