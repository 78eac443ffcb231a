(** XPath 1.0 evaluator: all thirteen axes, predicates with proximity
    position, the core function library, and extension-function hooks used
    by the XSLT layer. *)

exception Eval_error of string

module Smap : Map.S with type key = string

type context = {
  node : Xdb_xml.Types.node;
  position : int;  (** 1-based proximity position *)
  size : int;
  vars : Value.t Smap.t;
  extensions : (string * extension) list;
      (** extra functions, looked up after the core library *)
  current : Xdb_xml.Types.node option;  (** XSLT [current()] node *)
  assume_predicates : bool;
      (** partial-evaluation mode (paper §4.1): every predicate is
          conservatively assumed to hold *)
}

and extension = context -> Value.t list -> Value.t

val make_context :
  ?vars:Value.t Smap.t ->
  ?extensions:(string * extension) list ->
  ?assume_predicates:bool ->
  ?current:Xdb_xml.Types.node ->
  Xdb_xml.Types.node ->
  context
(** Context with position 1 of 1 on the given node. *)

val bind_var : context -> string -> Value.t -> context

val axis_nodes : Ast.axis -> Xdb_xml.Types.node -> Xdb_xml.Types.node list
(** Nodes of an axis from a context node, in axis (proximity) order:
    document order for forward axes, reverse document order for reverse
    axes. *)

val test_matches : Ast.axis -> Ast.node_test -> Xdb_xml.Types.node -> bool
(** Does a node satisfy a node test with respect to an axis's principal
    node kind? *)

val filter_predicate :
  context -> Xdb_xml.Types.node list -> Ast.expr -> Xdb_xml.Types.node list
(** Apply one predicate to a candidate list given in axis order.  A
    number-valued predicate selects by proximity position. *)

val eval : context -> Ast.expr -> Value.t
(** Evaluate an expression. @raise Eval_error on unbound variables or
    unknown functions. *)

val eval_steps :
  context -> Xdb_xml.Types.node list -> Ast.step list -> Xdb_xml.Types.node list
(** Apply a step chain to a start node list; result in document order. *)

val eval_string : context -> string -> Value.t
(** Parse and evaluate. *)

val select : context -> string -> Xdb_xml.Types.node list
(** [select ctx s] — node-set result of expression [s].
    @raise Invalid_argument if the result is not a node-set. *)

(** Helpers shared with the XQuery function library: *)

val find_sub : string -> string -> int option
(** The first index of the second string in the first ([Some 0] for
    the empty string). *)

val substring_xpath : string -> float -> float option -> string

val format_number : float -> string -> string
(** XSLT 1.0 [format-number()] picture formatting (§12.3 subset: [0]/[#]
    digit slots, decimal point, grouping commas, [%], negative
    subpattern). *)

val translate_xpath : string -> string -> string -> string
val normalize_space : string -> string
val generate_id : Xdb_xml.Types.node -> string
