(** Data-versioned cache of serialized transform/publish output — the
    read-path payoff of DML: on unchanged data a repeated request is
    served without a plan execution.  A keyed request costs a hash
    lookup under the cache's lock plus a handful of per-table version
    compares; a prepared statement that holds its entry ({!slot},
    {!hit}) skips the lookup and the lock too.  Either is O(1) in the
    data size.

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
    [result_cache_evictions]).  A keyed hit moves its entry to the front;
    a {!hit} through a slot sets the entry's referenced bit instead,
    which eviction honours with a second chance.

    Thread safety: an entry's state — output, versions, member recording
    — is a snapshot held by its LRU node and never mutated by the cache.
    A store, a keep (re-stamp), a patch install, an eviction and
    {!invalidate_view} run under one mutex, and each swaps a fresh
    snapshot into the node or unlinks it; an unlinked node's snapshot
    is swapped for an empty one that {!hit} never serves.  {!hit} takes
    no lock: it reads the held node's current snapshot, which may be a
    moment old; a snapshot is right at its own versions, so serving one
    whose versions all match is right.  A patch
    is computed outside the mutex and installed only if the entry still
    holds the snapshot it was patched from (physical equality): the
    first install wins.  The member recording inside a snapshot is the
    one thing that changes in place: a patch spends it under the
    recording's own lock ({!Xdb_rel.Exec.patch}), so of concurrent
    readers patching one entry the first patches and the others
    recompute.  Counters are atomics.  Version capture is only
    consistent because the engine serializes DML against reads (writer
    lock): within a read no dependency version can move between compute
    and {!store}, or during a {!hit}. *)

type t

val create : ?capacity:int -> Xdb_rel.Database.t -> t
(** A cache over [db]'s data versions.  [capacity] (default 256) bounds
    the entry count before LRU eviction. *)

type key
(** A cache key: its text, hashed once when it is made, so a lookup, an
    insert and an eviction compare the hash before the text and never
    hash it again. *)

val key : string -> key

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

type slot
(** Where a caller that asks for one key again and again — a prepared
    statement — keeps the entry it was last served from.  A slot
    belongs to one key: pass it to {!find} and {!store} with that key
    only.  A slot whose entry has left the cache holds only the emptied
    node until {!hit} finds it so and lets go of it: it keeps no page
    alive. *)

val slot : unit -> slot
(** An empty slot: {!hit} answers [None] until {!find} or {!store} pins
    an entry in it. *)

val hit : t -> slot -> string list option
(** The pinned entry's output, when the entry is still in the cache and
    no write has reached its tables since it was stored or re-stamped;
    counted as a hit.  No hash, no table probe and no lock.  [None]
    leaves the counters alone: the caller goes on to {!find}, which
    judges the writes and counts the outcome. *)

val find :
  t ->
  key:key ->
  ?footprint:(unit -> Xdb_rel.Footprint.memo option) ->
  ?patch:patch ->
  ?slot:slot ->
  unit ->
  outcome
(** Look [key] up, judging any writes since it was stored by the
    requesting plan's footprint (without one, any write drops the
    entry).  [footprint] is called only when a write reached one of the
    entry's tables, outside the cache's lock, so it may compile the
    plan; an entry no write reached is served without it.  A
    members-only write is patched with [patch] when both the entry
    recorded its members and [patch] is given; otherwise it drops the
    entry too.  A hit or a patch pins the entry in [slot]. *)

val store :
  t ->
  view:string ->
  key:key ->
  deps:string list ->
  ?members:Xdb_rel.Exec.members ->
  ?slot:slot ->
  string list ->
  unit
(** Store [output] under [key], snapshotting the current data version
    of every table in [deps], with the member recording of the run that
    computed it, if any.  [view] names the owning view for
    {!invalidate_view} ([""] for sources without one, e.g. shredded
    transforms).  The stored entry is pinned in [slot]. *)

val invalidate_view : t -> string -> unit
(** Drop every entry owned by the named view — called when the view is
    re-registered (schema evolution changes output without touching
    table data, which data versions cannot see). *)

val size : t -> int
(** Current entry count. *)

val recording : t -> key:key -> (string list * Xdb_rel.Exec.members) option
(** The entry's output and its member recording, when it has both;
    without touching its recency. *)

val counters : t -> (string * int) list
(** Monotonic observability counters, stable order:
    [result_cache_hits] / [result_cache_misses] /
    [result_cache_invalidations] / [result_cache_evictions] /
    [result_cache_kept] / [result_cache_patches].  Kept lookups count as
    hits too; a dropped entry counts as an invalidation and a miss; so
    [hits + misses + patches] is the total lookup count. *)
