(** The shredded XSLTVM: {!Xdb_xslt.Vm} semantics executed over relational
    node rows ({!Xdb_rel.Shred}).  Template matching runs through
    {!Xdb_rel.Shred.pattern_matches} and select/test expressions through
    {!Xdb_rel.Shred.eval_expr} — set-at-a-time steps over the node rows —
    so the input document is never rebuilt; only subtrees a template
    actually copies are materialised ({!Xdb_rel.Shred.subtree}).

    Output is byte-identical to {!Xdb_xslt.Vm.transform} over the
    reconstructed document.  Anything the relational engine cannot express
    raises {!Fallback}; the caller reconstructs and runs the DOM VM. *)

exception Fallback of string
(** The stylesheet (or one of its dynamic evaluations) left the
    relationally-executable subset: [xsl:key], active whitespace
    stripping, expressions over result-tree-fragment variables, or any
    {!Xdb_rel.Shred.Unsupported} construct. *)

val transform : Xdb_xslt.Compile.program -> Xdb_rel.Shred.t -> int -> Xdb_xml.Types.node
(** [transform prog shred docid] — result fragment (a document node).
    @raise Fallback when the program leaves the relational subset;
    @raise Xdb_xslt.Vm.Runtime_error on XSLT dynamic errors (same
    conditions as the DOM VM). *)

val transform_to_string : Xdb_xslt.Compile.program -> Xdb_rel.Shred.t -> int -> string
(** {!transform} serialized — the form {!Pipeline.run_shredded} emits. *)
