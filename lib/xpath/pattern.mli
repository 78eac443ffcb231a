(** XSLT 1.0 match patterns (XSLT 1.0 §5.2) over the XPath AST: a union of
    location-path patterns restricted to the [child]/[attribute] axes plus
    the [//] abbreviation, matched right-to-left.  Default priorities
    follow XSLT 1.0 §5.5. *)

exception Invalid_pattern of string

type step_link = Direct_child | Any_ancestor

type pattern_path = {
  from_root : bool;  (** pattern anchored at the document node *)
  rev_steps : (Ast.step * step_link) list;
      (** steps right-to-left; each link joins a step to the one on its
          left *)
}

type t = { source : string; alternatives : pattern_path list }

val parse : string -> t
(** Parse and validate pattern syntax. @raise Invalid_pattern when the
    expression is not a legal match pattern. *)

val matches : Eval.context -> t -> Xdb_xml.Types.node -> bool
(** Does the node match the pattern? The context supplies variable
    bindings for pattern predicates. *)

val split : t -> (t * float) list
(** Split a union pattern into single-alternative patterns, each with its
    default priority (XSLT treats a union template as separate rules). *)

val dispatch_key :
  t -> [ `Name of string | `Any_element | `Text | `Comment | `Pi | `Root ] option
(** Hash bucket the pattern's last step can match, for template dispatch
    tables; [None] = could match any node kind. *)

val to_string : t -> string
