(** Compilation of XPath location steps to pre/post interval conditions.

    With interval ("pre/post") numbering of a document — [pre] assigned on
    node entry, [post] on exit, from one shared counter — every axis is a
    conjunction of comparisons between a candidate node's columns and the
    context node's values: child is [parent = ctx.pre], descendant is
    [pre ∈ (ctx.pre, ctx.post)], ancestor is the inverse containment.
    This module is the pure translation (axis, node test) → condition
    list; the relational layer maps conditions onto B-tree-indexed
    columns (see [Xdb_rel.Shred]).  [Shred] reads a compiled {!spec}
    two ways: its per-context walks keep each candidate row (read off a
    document's cached pre-ordered rows) that passes the conditions
    against one context node, and its set-at-a-time batch evaluator
    uses the kind/name part as the row filter of one merged pass over a
    whole sorted context (staircase interval sweeps, owned-row walks). *)

(** Candidate-row column a condition constrains. *)
type col = Pre | Post | Parent

(** Context-node value the column is compared against. *)
type anchor = Ctx_pre | Ctx_post | Ctx_parent

type op = Eq | Lt | Leq | Gt | Geq

type cond = { col : col; op : op; anchor : anchor }

(** Node-kind restriction implied by the axis's principal node kind and
    the node test.  [K_non_attr] is [node()] on a principal-element axis:
    any kind except attributes — but the context node itself, an
    attribute too, on self and the -or-self axes (the reader admits it:
    the conditions alone cannot tell it from its owner's attributes). *)
type kind_filter = K_elem | K_attr | K_text | K_comment | K_pi | K_non_attr

type spec = {
  conds : cond list;  (** conjunctive; all within the context document *)
  kinds : kind_filter;
  name : string option;
      (** required element/attribute local name, or PI target *)
  reverse : bool;
      (** reverse axis: candidates (which arrive in document order) must
          be reversed for proximity order *)
}
(** The conditions hold from an attribute context node too, except on
    the sibling axes: an attribute is a leaf ([post = pre]) numbered
    inside its owner's interval before the owner's children, so
    following is what lies past it and preceding what ends before it,
    attribute rows excluded by kind (no principal-element axis admits
    them).  An attribute has no siblings, while the sibling conditions
    would answer the owner's children. *)

val compile : Ast.axis -> Ast.node_test -> spec option
(** [None] when the step is statically empty (the namespace axis, or a
    node test the axis's principal kind can never satisfy). *)

val cond_to_string : cond -> string
(** Debug rendering, e.g. ["pre > ctx.pre"]. *)
