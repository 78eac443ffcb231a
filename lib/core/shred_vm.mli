(** The shredded XSLTVM: {!Xdb_xslt.Vm} semantics compiled once per
    stylesheet into closures over relational node rows ({!Xdb_rel.Shred}).
    Template patterns compile through {!Xdb_rel.Shred.compile_pattern},
    select and test expressions through {!Xdb_rel.Shred.compile_expr} —
    set-at-a-time steps over the node rows — so the input document is
    never rebuilt and nothing is dispatched on an AST at run time.
    Template dispatch per (mode, node kind, name) walks candidate lists
    pre-sorted by (priority, source index).

    The top-level result streams into the serializer; only
    fragment-valued variables and the bodies of [xsl:attribute],
    [comment], [processing-instruction] and [message] build trees.
    Output is byte-identical to {!Xdb_xslt.Vm.transform} over the
    reconstructed document.  Anything the relational engine cannot
    express raises {!Fallback}; the caller discards the partial output,
    reconstructs the document and runs the DOM VM. *)

exception Fallback of string
(** The stylesheet (or one of its dynamic evaluations) left the
    relationally-executable subset: [xsl:key], active whitespace
    stripping, expressions over result-tree-fragment variables, or any
    {!Xdb_rel.Shred.Unsupported} construct. *)

type program
(** A stylesheet compiled for shredded documents.  It holds no mutable
    state: one program may run on several domains at once ({!Registry}
    caches one per stylesheet text). *)

val compile : Xdb_xslt.Compile.program -> program
(** Compile the bytecode's templates, patterns and expressions into
    closures.  Never raises {!Fallback}: constructs outside the
    relational subset raise it when they run. *)

val bytecode : program -> Xdb_xslt.Compile.program
(** The bytecode the program was compiled from — what the DOM VM runs
    for a document that falls back. *)

val run : program -> Xdb_rel.Shred.t -> int -> string
(** [run p store docid] — the document's serialized result (XML method,
    no indentation: the form {!Pipeline.run_shredded} emits).
    @raise Fallback when the program leaves the relational subset;
    @raise Xdb_xslt.Vm.Runtime_error on XSLT dynamic errors (same
    conditions as the DOM VM);
    @raise Xdb_xml.Events.Serialize_error for a comment or processing
    instruction the serializer refuses, as serializing the DOM VM's
    result would. *)
