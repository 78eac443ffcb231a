(** Compiled-stylesheet registry with automatic recompilation on schema
    evolution (paper §7.3: "this recompilation process is automated because
    the XSLT query has dependency on the XML schema whose change is tracked
    by the database system").

    Compilations are cached per (view, stylesheet).  Each cache entry
    records a fingerprint of the view's structural information; when a view
    is re-registered with a different shape — schema evolution — the next
    use recompiles against the new structure instead of serving the stale
    plan.

    The cache is bounded: entries carry a last-use tick and when the
    number of entries exceeds the configured capacity the least recently
    used entry is evicted (counted in [cache_evictions]).

    Stylesheets run over shredded documents are cached in the same LRU
    under their own key space ({!shredded}): compiled once per stylesheet
    text into a {!Shred_vm.program}, with their own hit/miss counters.
    They depend on no view, so nothing makes them stale.

    Thread safety: the view list, the cache table and the LRU tick are
    guarded by one mutex, so many domains can {!compile}/{!run}
    concurrently (Engine keeps a single registry per instance).  The
    actual stylesheet compilation runs {e outside} the lock — two domains
    missing on the same key may both compile; the loser's entry is simply
    replaced, and the counters (atomics) count both recompilations, so
    [recompilations = cache_misses + cache_stale] still holds. *)

module P = Xdb_rel.Publish
module S = Xdb_schema.Types

type payload = Plan of Pipeline.compiled | Shredded of Shred_vm.program

type entry = {
  fingerprint : string;
      (** structural fingerprint + catalog stats version at compile time *)
  payload : payload;
  mutable last_used : int;  (** recency tick for LRU eviction *)
}

(* (view name, stylesheet) for view plans; a shredded program's key
   cannot collide with any of them *)
type key = View_key of string * string | Shred_key of string

type t = {
  db : Xdb_rel.Database.t;
  lock : Mutex.t;  (** guards [views], [cache], [tick] and entry recency *)
  mutable views : (string * P.view) list;
  cache : (key, entry) Hashtbl.t;
  capacity : int;  (** max cached entries before LRU eviction *)
  mutable tick : int;  (** monotonic use counter *)
  views_version : int Atomic.t;
      (** bumped by every {!register_view} — prepared statements compare
          it (with the stats version) to skip registry lookups on hot
          paths, falling back to {!compile} only when it moved *)
  recompilations : int Atomic.t;  (** observability for tests/benches *)
  cache_hits : int Atomic.t;  (** fresh cache entry served *)
  cache_misses : int Atomic.t;  (** no cache entry — first compile *)
  cache_stale : int Atomic.t;  (** entry invalidated by schema evolution *)
  cache_evictions : int Atomic.t;  (** entries dropped by LRU bounding *)
  shred_hits : int Atomic.t;  (** cached shredded program served *)
  shred_misses : int Atomic.t;  (** shredded program compiled *)
}

exception Registry_error of string

let default_capacity = 64

let create ?(capacity = default_capacity) db =
  {
    db;
    lock = Mutex.create ();
    views = [];
    cache = Hashtbl.create 8;
    capacity = max 1 capacity;
    tick = 0;
    views_version = Atomic.make 0;
    recompilations = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    cache_stale = Atomic.make 0;
    cache_evictions = Atomic.make 0;
    shred_hits = Atomic.make 0;
    shred_misses = Atomic.make 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* callers hold t.lock *)
let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick

(* drop least-recently-used entries until within capacity; holds t.lock *)
let evict_over_capacity t =
  while Hashtbl.length t.cache > t.capacity do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.last_used <= e.last_used -> acc
          | _ -> Some (key, e))
        t.cache None
    in
    match victim with
    | None -> assert false (* non-empty: length > capacity >= 1 *)
    | Some (key, _) ->
        Hashtbl.remove t.cache key;
        Atomic.incr t.cache_evictions
  done

(* canonical textual form of a view's structural information: declaration
   lines sorted so hash-table order does not leak into the fingerprint.
   The catalog's statistics version is appended so that a re-ANALYZE
   invalidates cached plans — they were costed against stale statistics
   (§7.3 spirit: the database tracks the dependency, the registry
   recompiles) *)
let fingerprint_of t view =
  let schema = P.to_schema view in
  let lines = String.split_on_char '\n' (S.to_string schema) in
  String.concat "\n" (List.sort compare lines)
  ^ Printf.sprintf "\nstats_version=%d" (Xdb_rel.Database.stats_version t.db)

(** [register_view t view] — (re)register; replaces any previous view with
    the same name (schema evolution). *)
let register_view t (view : P.view) =
  locked t (fun () ->
      t.views <- (view.P.view_name, view) :: List.remove_assoc view.P.view_name t.views);
  Atomic.incr t.views_version

let views_version t = Atomic.get t.views_version

let find_view_opt t name = locked t (fun () -> List.assoc_opt name t.views)

let views t = locked t (fun () -> t.views)

let find_view t name =
  match find_view_opt t name with
  | Some v -> v
  | None -> raise (Registry_error (Printf.sprintf "unknown view %S" name))

(* the cached payload under [key] if its fingerprint is still [fp], else
   [build ()] (outside the lock) inserted in its place, with whether it
   was built; [on_stale] counts an entry that went stale, [on_miss] an
   absent one *)
let cached t key fp ~on_stale ~on_miss build =
  let found =
    locked t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | Some entry when entry.fingerprint = fp ->
            touch t entry;
            Some entry.payload
        | Some _ ->
            Atomic.incr on_stale;
            None
        | None ->
            Atomic.incr on_miss;
            None)
  in
  match found with
  | Some payload -> (payload, false)
  | None ->
      let payload = build () in
      locked t (fun () ->
          let entry = { fingerprint = fp; payload; last_used = 0 } in
          touch t entry;
          Hashtbl.replace t.cache key entry;
          evict_over_capacity t);
      (payload, true)

(** [compile t ~view_name ~stylesheet] — cached compilation; recompiles
    when the view's structural fingerprint has changed since the cached
    compile (or on first use).  Safe to call from several domains at
    once; compilation itself runs outside the registry lock.  [metrics]
    records per-stage compile timings — only on a cache miss, a hit
    records nothing. *)
let compile ?(options = Options.default) ?metrics t ~view_name ~stylesheet : Pipeline.compiled =
  let view = find_view t view_name in
  (* schema evolution or re-ANALYZE makes an entry stale *)
  let payload, built =
    cached t (View_key (view_name, stylesheet)) (fingerprint_of t view) ~on_stale:t.cache_stale
      ~on_miss:t.cache_misses (fun () -> Plan (Pipeline.compile ~options ?metrics t.db view stylesheet))
  in
  Atomic.incr (if built then t.recompilations else t.cache_hits);
  match payload with Plan c -> c | Shredded _ -> assert false (* keys never mix *)

(** [shredded t ~stylesheet] — the stylesheet compiled for shredded
    documents, once per stylesheet text.  [metrics] records the compile
    stages on a miss only. *)
let shredded ?metrics t ~stylesheet : Shred_vm.program =
  let payload, built =
    cached t (Shred_key stylesheet) "" ~on_stale:t.shred_misses ~on_miss:t.shred_misses (fun () ->
        Shredded (Pipeline.compile_shredded ?metrics stylesheet))
  in
  if not built then Atomic.incr t.shred_hits;
  match payload with Shredded p -> p | Plan _ -> assert false (* keys never mix *)

(** [run t ~view_name ~stylesheet] — rewrite-evaluate with auto-recompile. *)
let run ?options t ~view_name ~stylesheet : string list =
  let compiled = compile ?options t ~view_name ~stylesheet in
  Pipeline.run_rewrite t.db compiled

let recompilations t = Atomic.get t.recompilations

(** Cache observability counters, stable order.  [recompilations] equals
    [cache_misses + cache_stale]; [shred_misses] counts shredded-program
    compiles, apart from them. *)
let counters t =
  [
    ("cache_hits", Atomic.get t.cache_hits);
    ("cache_misses", Atomic.get t.cache_misses);
    ("cache_stale", Atomic.get t.cache_stale);
    ("recompilations", Atomic.get t.recompilations);
    ("cache_evictions", Atomic.get t.cache_evictions);
    ("shred_hits", Atomic.get t.shred_hits);
    ("shred_misses", Atomic.get t.shred_misses);
  ]
