(** Data-versioned cache of serialized transform/publish output — the
    read-path payoff of DML: on unchanged data a repeated request is a
    hash lookup plus a handful of per-table version compares, O(1) in
    the data size, instead of a plan execution.

    Each entry records the {!Xdb_rel.Database.data_version} of every
    table its output depends on.  While they all match, {!find} serves
    the entry.  When some moved, the UPDATEs logged since
    ({!Xdb_rel.Database.changes_since}) are judged by the requesting
    plan's {!Xdb_rel.Footprint}: writes to columns the plan never reads
    {e keep} the entry (re-stamped); writes to columns only its patchable
    XMLAgg members read {e patch} it (the members the changed rows reach
    — their own, or through a key of a correlated inner table — are
    re-emitted and spliced in, {!Xdb_rel.Exec.patch}); anything else — an
    INSERT, DELETE or replacement, a log that no longer reaches back, a
    write to a filter, index, correlation or order column, no footprint
    — drops it (an invalidation) and the output is recomputed.  Kept and
    patched bytes equal recomputed ones; the qcheck interleavings in
    test_sql compare them with a recompute and the functional VM.

    Entries also carry their owning view name so that re-registering a
    view (schema evolution — new spec, same table data) can invalidate
    through {!invalidate_view}, mirroring how {!Registry} fingerprints
    compiled plans.

    Like {!Registry}, the cache is LRU-bounded through {!Lru}: the least
    recently used entry is evicted past [capacity] in O(1) (counted in
    [result_cache_evictions]).

    Thread safety: one mutex guards the table and recency state, so
    concurrent server sessions share one cache safely; a patch is
    computed outside it and installed only if the entry is still at the
    versions it was patched from.  A patch updates the entry's member
    recording in place, so of concurrent readers patching one entry the
    first patches and the others recompute.  Counters are atomics.  Version
    capture is only consistent because the engine serializes DML against
    reads (writer lock): within a read no dependency version can move
    between compute and {!store}. *)

type t

val create : ?capacity:int -> Xdb_rel.Database.t -> t
(** A cache over [db]'s data versions.  [capacity] (default 256) bounds
    the entry count before LRU eviction. *)

type outcome =
  | Hit of string list  (** served as stored, or kept *)
  | Patched of string list
  | Miss  (** absent: compute and {!store} *)
  | Dropped  (** stored before, dropped now: recompute and {!store} *)

type patch =
  string list ->
  Xdb_rel.Exec.members ->
  (string * int list) list ->
  (string list * Xdb_rel.Exec.members) option
(** [patch output members changes]: [output] with the members that the
    updated rows reach re-emitted ([changes]: the rows per table), and
    its new member recording; [None] to recompute instead. *)

val find :
  t ->
  key:string ->
  ?footprint:(unit -> Xdb_rel.Footprint.memo option) ->
  ?patch:patch ->
  unit ->
  outcome
(** Look [key] up, judging any writes since it was stored by the
    requesting plan's footprint (without one, any write drops the
    entry).  [footprint] is called only when a write reached one of the
    entry's tables, outside the cache's lock, so it may compile the
    plan; an entry no write reached is served without it.  A
    members-only write is patched with [patch] when both the entry
    recorded its members and [patch] is given; otherwise it drops the
    entry too. *)

val store :
  t -> view:string -> key:string -> deps:string list -> ?members:Xdb_rel.Exec.members ->
  string list -> unit
(** Store [output] under [key], snapshotting the current data version
    of every table in [deps], with the member recording of the run that
    computed it, if any.  [view] names the owning view for
    {!invalidate_view} ([""] for sources without one, e.g. shredded
    transforms). *)

val invalidate_view : t -> string -> unit
(** Drop every entry owned by the named view — called when the view is
    re-registered (schema evolution changes output without touching
    table data, which data versions cannot see). *)

val size : t -> int
(** Current entry count. *)

val recording : t -> key:string -> (string list * Xdb_rel.Exec.members) option
(** The entry's output and its member recording, when it has both;
    without touching its recency. *)

val counters : t -> (string * int) list
(** Monotonic observability counters, stable order:
    [result_cache_hits] / [result_cache_misses] /
    [result_cache_invalidations] / [result_cache_evictions] /
    [result_cache_kept] / [result_cache_patches].  Kept lookups count as
    hits too; a dropped entry counts as an invalidation and a miss; so
    [hits + misses + patches] is the total lookup count. *)
