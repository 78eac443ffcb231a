(** [Xdb.Engine] — the single front door for database-backed XSLT
    processing.

    Wraps the {!Pipeline} entry points, the {!Registry} plan cache, the
    {!Result_cache} and the {!Parallel} domain pool behind a small verb
    set — {!create}, {!prepare}, {!run}, {!execute} — with one
    {!run_options} record replacing the [?metrics]/[?indent]/[?docids]
    optional-label sprawl the lower layers accreted.
    All errors cross this boundary as {!Xdb_error.Error}; library
    internals keep their own exceptions.

    One engine owns one registry, one result cache, the SQL statement
    surface (including XSLT views created by [CREATE VIEW]) and at most
    one domain pool (created on first use of [jobs > 1], resized when
    [jobs] changes, joined by {!shutdown}).

    {2 Reads, writes and the result cache}

    {!execute} accepts any SQL statement, including INSERT/UPDATE/DELETE.
    Internally the engine holds a reader/writer lock: reads
    ({!transform}, {!publish}, selects, shredded queries) share it,
    writes (DML, ANALYZE, CREATE VIEW, {!register_view},
    {!store_shredded}) are exclusive.  Every DML write bumps the target
    table's {!Xdb_rel.Database.data_version}; cached transform/publish
    results record the versions of every table their plan read and are
    served only while all of them still match — so a write is always
    visible to the next read, cached or not, and repeated reads on
    unchanged data cost a cache lookup instead of a plan execution (a
    prepared statement's, not even a hash: it holds its entry).
    Statistics go stale on write (reported by ANALYZE-aware tooling) but
    plans stay valid: costs are merely dated until the next ANALYZE.

    Thread safety: one engine may be shared by concurrent callers
    (threads or domains) — registry, result cache and metrics are
    internally locked, the domain pool is checked out under a lock held
    for the whole parallel phase, and the reader/writer lock serializes
    DML against in-flight reads.  {!Server} builds session multiplexing
    and admission control on top of this guarantee. *)

type t

(** How a transform (or publish) runs.  None of the fields selects an
    evaluation strategy: a view transform always runs the SQL/XML rewrite
    on the compiled executor, streaming its XML output, and a publish
    always streams.  [jobs] (default 1) sizes the domain pool a run
    splits over, by output document for every source: the plan runs (or
    the view folds, or the stored documents are listed) on the caller,
    and the documents serialize across the pool in contiguous chunks
    ({!Pipeline.per_document}).  Under [jobs > 1] the run's stage times
    are wall time ([sql_exec], [publish_stream]), except [shred_vm],
    which sums the documents' times over the domains.  EXPLAIN ANALYZE
    ignores [jobs].  [collect_metrics] (default false)
    attaches a fresh {!Metrics.t} to the run, returned in {!run_result};
    [result_cache] (default true) serves/stores data-versioned cached
    output — disable it to force recomputation (the rwbench byte-identity
    check runs both ways); [indent] (default false) pretty-prints
    {!publish} output (transforms ignore it: stylesheet output is never
    reindented). *)
type run_options = { jobs : int; collect_metrics : bool; result_cache : bool; indent : bool }

val default_run_options : run_options
(** [{ jobs = 1; collect_metrics = false; result_cache = true;
      indent = false }] *)

type run_result = {
  output : string list;  (** one serialized result per base-table row *)
  metrics : Metrics.t option;
      (** present iff [collect_metrics]; its [result_cache_hit] counter
          is 1 when the output was served from the result cache (as
          stored, or kept across writes the plan never reads), and its
          [result_cache_patched] counter 1 when the cached output was
          patched instead (the [result_cache_patch] stage times the
          patch).  A view transform's [exec_compiled] counter is 1 when
          the run compiled its plan, 0 when it opened the executable its
          compiled plan keeps ({!Pipeline.run_rewrite}) or served a
          cached page *)
}

(** What a transform reads: a registered XMLType view's published
    documents, or interval-shredded stored documents ([Shredded None] =
    all of them). *)
type source = View of string | Shredded of int list option

val create :
  ?capacity:int -> ?result_capacity:int -> ?options:Options.t -> Xdb_rel.Database.t -> t
(** An engine over a loaded database.  [capacity] bounds the compiled
    plan cache ({!Registry.create}); [result_capacity] bounds the result
    cache ({!Result_cache.create}); [options] are the translation
    options applied to every compile. *)

val database : t -> Xdb_rel.Database.t

val register_view : t -> Xdb_rel.Publish.view -> unit
(** (Re)register an XMLType view; re-registering a name models schema
    evolution and invalidates cached plans {e and} cached results for
    it.  Takes the writer side of the engine lock. *)

(** {1 Statements}

    {!execute} runs any SQL statement — base-table selects,
    [SELECT XMLTransform(…)] over views, [XMLQuery], [CREATE VIEW … AS
    SELECT XMLTransform(…)] (an XSLT view, engine-wide), ANALYZE, and
    INSERT/UPDATE/DELETE with index maintenance and data versioning. *)

val execute : t -> string -> Xdb_sql.Engine.result
(** Parse and run one SQL statement, taking the matching side of the
    engine's reader/writer lock.  @raise Xdb_error.Error ([Parse] for
    syntax, [Sql] for validation/execution failures). *)

(** {1 Prepared statements}

    A {!stmt} pins a (view, stylesheet) pair with its compiled form.
    Re-running one skips all registry work while nothing changed: the
    hot path is one atomic read and two integer version compares
    (catalog statistics, view registrations); only when one moved does
    the statement recompile through the {!Registry} (which still serves
    its cache if the statement's own view is unaffected).  A statement
    also holds the result-cache entry it was last served from
    ({!Result_cache.slot}): while that entry is live and no write
    reached its tables, {!transform_stmt} serves it with no key hash
    and no result-cache lock. *)

type stmt

val prepare : ?metrics:Metrics.t -> t -> view_name:string -> stylesheet:string -> stmt
(** Compile [stylesheet] against the view's structural information
    (fingerprinted, auto-recompiled on evolution/ANALYZE) and pin the
    result.  [metrics] records per-stage compile timings — only when
    the plan cache misses; a hit records nothing.
    @raise Xdb_error.Error on parse/translation/registry failures. *)

val stmt_view : stmt -> string
(** The view the statement was prepared against. *)

val transform_stmt : ?options:run_options -> t -> stmt -> run_result
(** Evaluate a prepared statement: the SQL/XML rewrite path (with
    dynamic-XQuery fallback), served from the result cache when
    possible.
    [jobs > 1] serializes the output documents across the pool; output
    is byte-identical to the sequential run.
    @raise Xdb_error.Error on any pipeline failure. *)

val explain_stmt : t -> stmt -> string
(** {!Pipeline.explain} of the (revalidated) compilation. *)

val explain_analyze_stmt : ?metrics:Metrics.t -> t -> stmt -> string
(** Instrumented execution of a prepared statement (see
    {!explain_analyze}). *)

(** {1 Transforms} *)

val run : ?options:run_options -> t -> source -> stylesheet:string -> run_result
(** Transform a {!source} with [stylesheet] — the unified verb.
    [View v] prepares (through the plan cache) and evaluates;
    [Shredded ids] runs the shredded XSLTVM over stored documents,
    compiled once per stylesheet text ({!Registry.shredded}; the
    [shred_hits]/[shred_misses] counters of {!registry_counters}):
    template matching and select iteration execute as set-at-a-time
    scans over the node rows, with no document reconstruction on that
    path, and each document's result streams into the serializer;
    documents whose evaluation leaves the relational subset fall
    back per document to reconstruct + DOM VM ([shred_vm_fallback_docs]
    in metrics), so output is always byte-identical to transforming the
    original documents directly.  [jobs > 1] runs the documents across
    the pool.  Cached results are served when [result_cache] and the dependency
    tables' data versions still match; with a SQL/XML plan they are
    also kept across UPDATEs of columns the plan never reads,
    and patched across UPDATEs of columns only the members of its
    patchable XMLAgg read ({!Result_cache}).
    @raise Xdb_error.Error on any pipeline failure. *)

val transform :
  ?options:run_options -> t -> view_name:string -> stylesheet:string -> run_result
(** [run t (View view_name) ~stylesheet]. *)

val publish : ?options:run_options -> t -> view_name:string -> run_result
(** Materialise the view's documents (one string per base row), spec
    events streamed straight into the serializer; [jobs > 1] serializes
    the documents across the pool; [indent] pretty-prints.  Cached per (view, indent) like transforms.
    @raise Xdb_error.Error on publish/serialize failures. *)

(** {1 Shredded document storage}

    Documents stored node-per-row with interval (pre/post) numbering
    ({!Xdb_rel.Shred}): XPath axes over them become slices of each
    document's pre-ordered rows instead of tree walks, and transforms run
    directly over the node rows through the shredded XSLTVM
    ({!Shred_vm}).  Each engine owns one shred store; it is not part of
    the SQL catalog. *)

val shred_store : t -> Xdb_rel.Shred.t
(** The engine's shred store. *)

val store_shredded : t -> Xdb_xml.Types.node -> int
(** Decompose a document into interval-encoded node rows; returns its
    docid.  Takes the writer side and bumps the store's data version
    (the result-cache dependency of every shredded transform), so cached
    shredded transforms notice the new document.
    @raise Xdb_error.Error on shredding failures. *)

val query_shredded : t -> docid:int -> string -> string list
(** Evaluate an XPath expression over a stored document by relational
    axis steps over its rows (DOM-interpreter fallback outside the supported
    subset — identical answers either way) and serialize each result
    node.  @raise Xdb_error.Error on parse/evaluation failures. *)

(** {1 Inspection} *)

val explain : t -> view_name:string -> stylesheet:string -> string
(** {!Pipeline.explain} of the prepared compilation.
    @raise Xdb_error.Error on compile failures. *)

val explain_analyze :
  ?metrics:Metrics.t -> t -> view_name:string -> stylesheet:string -> string
(** Execute the SQL/XML plan with per-operator instrumentation and
    render estimated vs actual ({!Pipeline.explain_analyze});
    [metrics] records compile-stage timings as in {!prepare}.  The run
    is always sequential (no pool): its per-operator counters are plain
    fields.
    @raise Xdb_error.Error on compile/execution failures. *)

val registry_counters : t -> (string * int) list
(** The plan cache's observability counters ({!Registry.counters}),
    shredded-program hits and misses included. *)

val result_cache_counters : t -> (string * int) list
(** The result cache's observability counters
    ({!Result_cache.counters}). *)

val result_cache_size : t -> int
(** Current result-cache entry count. *)

val stmt_recording : t -> stmt -> (string list * Xdb_rel.Exec.members) option
(** The statement's cached output and where its patchable members lie,
    when the result cache holds both ({!Result_cache.recording}): what
    {!Xdb_rel.Exec.check_members} checks. *)

val shutdown : t -> unit
(** Join the engine's domain pool, if one was created.  Idempotent; the
    engine remains usable afterwards with [jobs = 1] semantics (a new
    pool is created on the next [jobs > 1] run). *)
