(** End-to-end XSLT processing pipelines (paper Figure 1). *)

(** A stylesheet compiled against an XMLType view: bytecode for the
    functional baseline, the XSLT→XQuery translation, and (when the
    generated query stays in the rewritable fragment) the SQL/XML plan.

    It keeps its plan's executable ({!Xdb_rel.Exec.kept}): the plan
    compiles on the first {!run_rewrite} and every later run opens that
    compilation, so a compiled record served many times (an exact-text
    registry entry, a prepared statement) compiles its plan once.  A
    binding of a shared shape ({!bind}) runs its variant's executable on
    its literals; its bound bytecode, XQuery and plan are built only
    when one of the accessors below asks. *)
type compiled

val view : compiled -> Xdb_rel.Publish.view
val schema : compiled -> Xdb_schema.Types.t
val vm_prog : compiled -> Xdb_xslt.Compile.program
val translation : compiled -> Xslt2xquery.result

val sql_plan : compiled -> Xdb_rel.Algebra.plan option
(** The SQL/XML plan, a binding's literals in place: what EXPLAIN shows,
    what the footprint and a recording run read. *)

val sql_fallback_reason : compiled -> string option
(** Why {!sql_plan} is [None]. *)

val deps : compiled -> string list
(** Every table the output depends on: the view's own tables (what the
    functional path materialises from) and the plan's. *)

val footprint : compiled -> Xdb_rel.Footprint.memo option
(** Of {!sql_plan}, computed on first use. *)

val with_plan : compiled -> Xdb_rel.Algebra.plan -> compiled
(** [with_plan c plan] — [c] with [plan] as its SQL/XML plan: a
    hand-built plan run through {!run_rewrite} (tests). *)

val compile :
  ?options:Options.t ->
  ?metrics:Metrics.t ->
  Xdb_rel.Database.t ->
  Xdb_rel.Publish.view ->
  string ->
  compiled
(** Full compilation: stylesheet text → bytecode → partial evaluation over
    the view's structural information → XQuery → SQL/XML plan.  With
    [metrics], per-stage wall times are recorded under
    [parse]/[bytecode]/[schema]/[translate]/[sql_rewrite], plus
    [bytecode_ops]/[xquery_functions]/[sql_rewritable] counters. *)

(** {1 Stylesheet shapes}

    Ad-hoc texts that differ only in integer literals ({!Shape.cut})
    share one compile: the shape is compiled once with each literal slot
    as a reserved variable, and the SQL rewrite turns a reference to one
    into an {!Xdb_rel.Algebra.Param} leaf.  The plan is optimised with
    those leaves in place ({!optimise}); the cost model reads a slot's
    value only through a logged {!Xdb_rel.Cost.binding}, so another
    binding whose reads replay equal ({!replays}) gets the same plan and
    skips the optimiser ({!bind}).  Either way the result — EXPLAIN
    text, output and every cost choice — is what {!compile} of the full
    text gives. *)

type template
(** A shareable shape: its bytecode, translation and unoptimised plan,
    each with the slots as parameters. *)

type variant
(** A template's optimised plan, [Param] leaves in place, with what its
    cost choices read: the binding's literal reads, the statistics
    version, and the tables with their row counts. *)

val compile_template :
  ?options:Options.t ->
  ?metrics:Metrics.t ->
  Xdb_rel.Database.t ->
  Xdb_rel.Publish.view ->
  string ->
  int array ->
  (template * variant * compiled) option
(** [compile_template db view shape values] — compile [shape] once,
    optimise it for [values] and bind it to them; [None] when the shape
    is unshareable: a stage fails on a slot (partial evaluation reads an
    [xsl:if] test, say), the query does not rewrite, or a slot is
    missing from the plan or occurs anywhere but as a direct operand of
    a comparison whose other side reads data.  Stages as {!compile}, the
    [opt_*] passes inside [sql_rewrite]. *)

val optimise : ?metrics:Metrics.t -> Xdb_rel.Database.t -> template -> int array -> variant
(** [optimise db t values] — optimise the template's plan against the
    current statistics and indexes, the cost model reading the slots'
    values from [values] ([opt_*] stages under [metrics]). *)

val replays : Xdb_rel.Database.t -> variant -> int array -> bool
(** [replays db v values] — would {!optimise} for [values] give [v]'s
    plan?  True when the statistics version, the tables and their row
    counts are unchanged, slots equal (or unequal) in [v]'s binding
    still are, and every logged literal read of the cost model gives a
    bit-identical estimate for [values].  No optimiser runs. *)

val bind : template -> variant -> int array -> compiled
(** [bind t v values] — the compilation of the text whose slots hold
    [values], for a [v] that {!replays} for them (or was optimised for
    them).  No optimiser and no plan compilation run: [v] keeps its
    plan's executable, compiled once with each [Param i] read from the
    run's parameter row, and a run of the binding opens it on [values].
    The integers replace the parameters in the XQuery, bind as globals
    of the bytecode and replace the [Param] leaves of [v]'s plan only
    when {!vm_prog}, {!translation}, {!sql_plan} or {!footprint} first
    asks (EXPLAIN, the functional path, a recording run, a patch). *)

val run_functional : ?metrics:Metrics.t -> Xdb_rel.Database.t -> compiled -> string list
(** "XSLT no rewrite": materialise each view document, run the XSLTVM.
    One serialized result per base-table row.  Stages: [materialize],
    [vm_transform].  The paper's baseline, and the independent reference
    the differential tests hold the rewrite path to; {!Engine} serves
    every transform through {!run_rewrite}. *)

val run_xquery_stage : ?metrics:Metrics.t -> Xdb_rel.Database.t -> compiled -> string list
(** Evaluate the generated XQuery dynamically over materialised documents
    (differential testing of the translation itself).  Stages:
    [materialize], [xquery_eval]. *)

val run_rewrite :
  ?metrics:Metrics.t ->
  ?pool:Parallel.t ->
  ?on_members:(Xdb_rel.Exec.members -> unit) ->
  Xdb_rel.Database.t ->
  compiled ->
  string list
(** "XSLT rewrite": execute the SQL/XML plan (B-tree access, no input
    materialisation); falls back to {!run_xquery_stage} when no plan
    exists.  Stage: [sql_exec] (or the fallback's stages).  The run
    opens the kept executable ({!Xdb_rel.Exec.run_kept}), compiling it
    only on the compiled record's (or variant's) first run or after a
    catalog change staled it; a recording run compiles the bound plan
    with its recorder, as an instrumented one does.  The counter
    [exec_compiled] is 1 when this run compiled a plan, else 0.  The plan's
    XML constructors emit output events drained straight into the result
    buffer, with no per-row result tree.  The plan runs on the caller; a
    [pool] with more than one domain serializes its documents across the
    domains ({!per_document}), and [sql_exec] is then the wall time of
    both.  [on_members] receives the recording of a sequential run whose
    plan has a patchable XMLAgg ({!Xdb_rel.Exec.patch}), when the run's
    members allow one; a split run records none.

    Prefer {!Engine.transform}: the facade folds [metrics] (and the
    [jobs] pool size) into one [run_options] record; this entry point
    remains as its engine room. *)

val run_rewrite_analyzed :
  ?metrics:Metrics.t -> Xdb_rel.Database.t -> compiled -> string list * Xdb_rel.Stats.t option
(** {!run_rewrite} with per-operator instrumentation; the stats collector
    is [None] when the pipeline fell back to the XQuery stage.  Always
    sequential: the collector's counters are plain fields, and draining
    the documents runs the plan's correlated subplans. *)

(** {1 Splitting a run}

    The rewrite path turns one transform call into a plan that gives one
    document per base-table row (paper §3), and serializing those
    documents — draining each row's streamed result — is most of the
    run.  So a run splits by output document, for every source: the
    plan runs (or the view folds) on the caller, then the documents
    serialize across a {!Parallel} pool of more than one domain in
    contiguous chunks and concatenate in document order, byte-identical
    to the sequential run.  [jobs] sizes the pool; it never selects a
    different evaluation strategy. *)

val per_document :
  ?pool:Parallel.t -> 'a list -> (unit -> int -> 'a -> string) -> string list
(** [per_document ?pool items chunk] — one document per item, in order:
    [chunk ()] makes a serializer (its scratch buffer, say) that is
    applied to each item's index and value.  On the caller with one
    serializer when [pool] is absent or has one domain; otherwise the
    items split into contiguous chunks ({!Parallel.chunk_ranges}, four
    per domain), each chunk serialized on some domain by a serializer of
    its own. *)

val compose :
  Xdb_rel.Database.t ->
  compiled ->
  Xdb_xpath.Ast.step list ->
  Xdb_rel.Algebra.plan option * Xdb_xquery.Ast.prog
(** Example 2: compose an XQuery child path over the XSLT view result and
    rewrite the composition down to one relational plan (paper Table 11). *)

val run_composed_dynamic :
  Xdb_rel.Database.t -> compiled -> Xdb_xquery.Ast.prog -> string list
(** Evaluate a composed query dynamically (fallback / differential). *)

(** Standalone documents (no database): *)

type doc_compiled = {
  d_prog : Xdb_xslt.Compile.program;
  d_schema : Xdb_schema.Types.t;
  d_translation : Xslt2xquery.result;
}

val compile_for_document :
  ?options:Options.t ->
  ?schema:Xdb_schema.Types.t ->
  string ->
  example_doc:Xdb_xml.Types.node ->
  doc_compiled
(** Partial evaluation against a registered schema, or against structural
    information inferred from a representative document. *)

val transform_functional : doc_compiled -> Xdb_xml.Types.node -> string
val transform_via_xquery : doc_compiled -> Xdb_xml.Types.node -> string

val compile_shredded : ?metrics:Metrics.t -> string -> Shred_vm.program
(** Parse a stylesheet and compile it for shredded documents: bytecode,
    then {!Shred_vm.compile}.  Stages: [parse], [bytecode] (both
    compilations). *)

val run_shredded :
  ?metrics:Metrics.t ->
  ?pool:Parallel.t ->
  Xdb_rel.Shred.t ->
  Shred_vm.program ->
  int list ->
  string list
(** Shredded evaluation: run the compiled shredded XSLTVM ({!Shred_vm})
    per stored document — template matching and select iteration execute
    as set-at-a-time steps over the node rows, the input document is
    never rebuilt, and the result streams into the serializer.  A
    document whose evaluation leaves the relational subset
    ({!Shred_vm.Fallback}) is reconstructed and run through the DOM VM
    over the program's bytecode, so output is always byte-identical to
    {!transform_functional} over the original documents.  A [pool] with
    more than one domain runs the same per-document evaluation across
    its domains ({!per_document}); the documents charge the run's one
    [metrics], so [shred_vm] then sums their times over the domains.

    Stages: [shred_vm] (plus [reconstruct]/[vm_transform] for fallback
    documents).  Counters: [shred_vm_docs], [shred_vm_fallback_docs],
    [shred_batch_steps], [shred_rel_steps], [shred_dom_fallbacks]. *)

val mode_name : Xslt2xquery.mode_used -> string

val explain : compiled -> string
(** Multi-section EXPLAIN: translation mode, execution graph, generated
    XQuery, SQL/XML plan (or the fallback reason). *)

val explain_analyze : Xdb_rel.Database.t -> compiled -> string
(** Execute the SQL/XML plan with instrumentation, sequentially, and
    render estimated vs actual rows, loops, B-tree probes and wall time
    per operator; reports the fallback reason when no plan exists.  Ends
    with the write footprint: per column of
    each table the plan scans, what an UPDATE of it does to a cached page
    (keep, patch or recompute), rendered from the footprint the result
    cache judges with. *)
