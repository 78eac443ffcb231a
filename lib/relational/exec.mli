(** Plan and expression evaluation.

    One executor: it resolves every column reference to a slot in a
    fixed {!Layout.t} when the plan is opened, compiles expressions into
    closures over [Value.t array] rows, and pulls batches of
    ~{!default_batch_size} rows between operators.  {!run} and friends
    hand rows back as association lists, {!run_arrays} as arrays.

    Each scan binds both the bare column name and the [alias.column]
    qualified form, so correlated subqueries can reference outer tables
    the way paper Table 7 does.  A compiled operator's rows hold only
    its own slots; a correlated subplan opens on its environment row and
    reads outer columns there in place. *)

type row = (string * Value.t) list

exception Exec_error of string

val bool_of_value : Value.t -> bool
(** SQL truthiness: NULL/0/NaN/""/empty-XML are false.  Streamed XMLType
    values probe their producer for a first event. *)

val emit_content : Xdb_xml.Events.sink -> Value.t -> unit
(** SQL/XML content conversion as output events: XML forests replay node
    by node, scalars emit one text event, NULL emits nothing. *)

val scan_bindings : Table.t -> string -> Value.t array -> row
(** Row bindings a scan produces: bare and alias-qualified names. *)

val index_rids : Table.t -> Table.index -> Btree.bound -> Btree.bound -> int array
(** The row ids an index scan yields for its bound values, in index
    order, answering exactly as the SQL comparisons it stands for: a NULL
    bound selects nothing, NULL keys are never selected, and a bound of
    the other type class than the column is answered by those
    comparisons over the heap. *)

(** {1 Compiled execution} *)

val default_batch_size : int
(** Rows per batch exchanged between operators (1024). *)

val rowid_column : string
(** A hidden column of the compiled scans: the row id of the table row,
    as an [Int].  The SQL grammar cannot name it.  A plan whose top
    [Project] lists it (a DML row selection) can read it anywhere; its
    scans copy each row with the id appended.  Every other plan's scans
    hand out the table's own row arrays, and the name is unknown there. *)

type compiled
(** A plan after the column-resolution pass: fixed output layout,
    expressions compiled to closures, ready to open. *)

val compile :
  Database.t ->
  ?stats:Stats.t ->
  ?outer:Layout.t ->
  ?xml_streaming:bool ->
  Algebra.plan ->
  compiled
(** Resolve every column reference (including inside CASE branches and
    correlated subqueries) against the operator layouts; compile
    expressions to closures; build batch cursors.  [xml_streaming]
    (default false) makes XML constructors produce [Value.Xml_stream]
    event producers instead of materialized node trees — same bytes on
    serialization, no per-row DOM.  The compiled closures keep no
    scratch state shared between calls, so the producers of one run's
    rows may drain on several domains at once (an instrumented
    compilation excepted: its [stats] are plain counters).

    The environment row the plan opens on holds [outer]'s columns.  A
    plan kept with [params] parameters ({!keep}) opens on its parameter
    row instead: [Param i] reads slot [i] of that row, a reserved outer
    column that correlated subplans see through the layout they
    inherit, so one compilation serves every binding.  Compiled any
    other way, a [Param] is an [Exec_error].

    Each scan looks its table (and an index scan its index) up in the
    catalog now, at compile time, and reads that object's rows and
    B-tree whenever it opens.  A compilation kept across catalog changes
    must be checked first: {!run_kept} does.
    @raise Exec_error at plan-open time for unknown or ambiguous
    columns, listing the columns that are available. *)

type kept
(** A plan whose compilation runs once and is kept for every run after:
    a set-once cell, replaced only when it went stale. *)

val keep : ?params:int -> Algebra.plan -> kept
(** [keep plan] — compiled on its first {!run_kept}, with [params]
    (default 0) parameters ({!compile}) and streaming XML constructors
    ([xml_streaming]). *)

val run_kept :
  on_compile:(unit -> unit) ->
  Database.t ->
  kept ->
  Value.t array ->
  Layout.t * Value.t array list
(** [run_kept db k params] — {!run_arrays} of the kept plan, opened on
    the parameter row [params].  The kept compilation is used while
    every table it scans is still the catalog's table of that name and
    every index it probes still one of that table's indexes
    ([Table.delete] rebuilds them, [Table.drop_index] and
    [Database.create_table] replace them); otherwise the plan compiles
    again now, [on_compile] is called, and the new compilation is kept.
    Callers keep the catalog still for the run (the engine's read lock);
    several domains may run one [kept] at once.  A compilation that went
    stale keeps what it captured (an old index's B-tree, say) alive
    until a run replaces it or the [kept] is dropped. *)

val compile_expr : Database.t -> Layout.t -> Algebra.expr -> Value.t array -> Value.t
(** [compile_expr db layout e] — [e] compiled once against the rows of
    [layout] (for an association row, {!Layout.of_bindings} of its names);
    apply the result to each row, its values in the layout's slots.  XML
    constructors build trees.  Correlated subqueries open on that row.
    @raise Exec_error at compile time for unknown or ambiguous
    columns. *)

type recorder
(** A run's record of the members of the plan's patchable XMLAgg
    ({!Footprint.members}): per output document, the driving row of each
    member and where its bytes end in the serialized result. *)

type members
(** What a recorder saw: see {!recorded}. *)

val run_arrays :
  Database.t ->
  ?xml_streaming:bool ->
  ?record:recorder ->
  Algebra.plan ->
  Layout.t * Value.t array list
(** Compiled execution to physical rows plus their layout — the
    allocation-light entry point for hot paths.  [record] (with
    [xml_streaming]) records the members as the rows' streamed results
    serialize ({!record_document}), one document at a time. *)

val recorder : Footprint.members -> recorder

val record_document :
  recorder -> doc:int -> Xdb_xml.Events.sink -> Buffer.t -> (unit -> bool) -> unit
(** Output document [doc] serializes next, into the sink over the buffer
    of {!Xdb_xml.Events.content_sink}, with its open-tag test: offsets
    are taken past a start tag the next content closes. *)

val recorded : recorder -> Algebra.plan -> members option
(** After the last document; [None] when the members were emitted other
    than once per document straight into its sink, or every member of a
    wrapper was empty (it self-closed). *)

val patch :
  Database.t ->
  Algebra.plan ->
  Footprint.members ->
  members ->
  changes:(string * int list) list ->
  string list ->
  (string list * members) option
(** [patch db plan m recorded ~changes output] — [output], as a run of
    [plan] recorded it, with the members that the updated rows reach
    re-emitted by the member emitter the recording run compiled and
    spliced in, and the new recording.  [changes] lists, per table, the
    rows overwritten in place since, in columns {!Footprint.classify}
    judged [Driving] (the rows' own members) or [Correlated] (the members
    whose driving key equals a row's key under the index probe's
    equality).  [None] (recompute) when [recorded] came from another
    plan or was patched before, more than 32 rows changed, a key is of
    the other type class, or the patch would empty every member of a
    wrapper.

    The work is the changed rows' and the members they reach, not the
    page's member count: a recording finds a driving row's member by
    its rid and an inner row's members by their driving key (indexes
    built by the first patch that needs them), and keeps its members'
    lengths in a Fenwick tree.  The only work in the page's size is the
    copy of each patched document.  A patch updates the recording in
    place: the [members] passed in is spent, and the one returned
    describes the new output. *)

val check_members : members -> string list -> unit
(** [check_members recorded output] — the recording's invariants, for
    tests: each member re-emitted equals [output]'s bytes where the
    recorded lengths place it, the kept total equals the lengths' sum
    and fits the document, and each built key index files every member
    under its driving row's current key.
    @raise Failure naming the first document and member that break one. *)

val run_arrays_analyzed :
  Database.t ->
  ?xml_streaming:bool ->
  Algebra.plan ->
  (Layout.t * Value.t array list) * Stats.t
(** {!run_arrays} with per-operator instrumentation. *)

(** {1 Assoc-row entry points (compiled underneath)} *)

val run : Database.t -> ?outer:row -> Algebra.plan -> row list
(** Execute a plan; [outer] supplies correlation bindings.  Runs the
    compiled executor and converts each physical row back to an
    association list via the output layout. *)

val run_analyzed : Database.t -> ?outer:row -> Algebra.plan -> row list * Stats.t
(** [run] with per-operator instrumentation: every operator of the plan
    (correlated subqueries included) records rows produced, loops,
    B-tree probe counts and inclusive wall time into the returned
    collector — the input to {!Optimizer.explain_analyze}. *)

val run_column : Database.t -> ?outer:row -> Algebra.plan -> Value.t list
(** First column of each result row. *)
