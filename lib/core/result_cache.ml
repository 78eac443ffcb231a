(* Data-versioned transform/publish result cache.  See result_cache.mli. *)

module DB = Xdb_rel.Database
module FP = Xdb_rel.Footprint

type entry = {
  view : string;  (** owning view name — schema-evolution invalidation handle *)
  mutable output : string list;
  mutable deps : (string * int) list;  (** (table, data version when stored or re-stamped) *)
  mutable members : Xdb_rel.Exec.members option;  (** where its patchable members lie *)
}

type t = {
  db : DB.t;
  lock : Mutex.t;  (** guards [cache] *)
  cache : (string, entry) Lru.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
  evictions : int Atomic.t;
  kept : int Atomic.t;
  patches : int Atomic.t;
}

type outcome = Hit of string list | Patched of string list | Miss | Dropped

type patch =
  string list ->
  Xdb_rel.Exec.members ->
  (string * int list) list ->
  (string list * Xdb_rel.Exec.members) option

let default_capacity = 256

let create ?(capacity = default_capacity) db =
  {
    db;
    lock = Mutex.create ();
    cache = Lru.create capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    invalidations = Atomic.make 0;
    evictions = Atomic.make 0;
    kept = Atomic.make 0;
    patches = Atomic.make 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let restamp t entry =
  entry.deps <- List.map (fun (tbl, _) -> (tbl, DB.data_version t.db tbl)) entry.deps

(* what the writes since [entry] was stored mean for it under
   [footprint]: [`Fresh] (none), [`Keep] (none it reads), [`Patch
   changes] (only the members these rows reach, per table), or [`Drop]
   — also when a write is not a logged UPDATE *)
let judge t footprint entry =
  let exception Drop in
  let patched = ref [] and moved = ref false in
  let judge_change tbl fp (changed, columns) =
    match FP.classify fp ~table:tbl columns with
    | FP.Irrelevant -> []
    | FP.Driving | FP.Correlated _ -> Array.to_list changed
    | FP.Recompute -> raise Drop
  in
  let judge_table (tbl, v) =
    if DB.data_version t.db tbl <> v then (
      moved := true;
      match (footprint, DB.changes_since t.db tbl v) with
      | Some fp, Some changes -> (
          match List.concat_map (judge_change tbl (FP.get fp)) changes with
          | [] -> ()
          | rids -> patched := (tbl, List.sort_uniq compare rids) :: !patched)
      | _ -> raise Drop)
  in
  match List.iter judge_table entry.deps with
  | () when not !moved -> `Fresh
  | () -> if !patched = [] then `Keep else `Patch !patched
  | exception Drop -> `Drop

let moved t entry = List.exists (fun (tbl, v) -> DB.data_version t.db tbl <> v) entry.deps

let find t ~key ?(footprint = fun () -> None) ?patch () =
  (* an entry no write has reached is served without the footprint,
     which is forced only once a dependency moved, outside the lock (it
     may compile).  Data versions stay put in between: the engine
     serializes DML against reads. *)
  let first =
    locked t (fun () ->
        match Lru.find t.cache key with
        | None -> `Miss
        | Some node when not (moved t (Lru.value node)) ->
            Lru.use t.cache node;
            Atomic.incr t.hits;
            `Hit (Lru.value node).output
        | Some _ -> `Moved)
  in
  let verdict =
    match first with
    | (`Miss | `Hit _) as v -> v
    | `Moved ->
        let footprint = footprint () in
        locked t (fun () ->
            match Lru.find t.cache key with
            | None -> `Miss
            | Some node -> (
                let entry = Lru.value node in
                match (judge t footprint entry, entry.members, patch) with
                | ((`Fresh | `Keep) as v), _, _ ->
                    (* kept: no write since reached what the output was computed from *)
                    if v = `Keep then (
                      restamp t entry;
                      Atomic.incr t.kept);
                    Lru.use t.cache node;
                    Atomic.incr t.hits;
                    `Hit entry.output
                | `Patch changes, Some members, Some patch ->
                    `Patch (node, entry.deps, entry.output, members, changes, patch)
                | _ ->
                    Lru.remove t.cache key;
                    Atomic.incr t.invalidations;
                    `Dropped))
  in
  match verdict with
  | `Hit output -> Hit output
  | `Miss ->
      Atomic.incr t.misses;
      Miss
  | `Dropped ->
      Atomic.incr t.misses;
      Dropped
  | `Patch (node, seen, output, members, changes, patch) -> (
      let entry = Lru.value node in
      (* outside the lock: concurrent readers patch on their own, and a
         patch is installed only over the entry at the versions it was
         patched from — the first install wins *)
      match patch output members changes with
      | None ->
          Atomic.incr t.invalidations;
          Atomic.incr t.misses;
          locked t (fun () ->
              match Lru.find t.cache key with
              | Some n when n == node && entry.deps == seen -> Lru.remove t.cache key
              | _ -> ());
          Dropped
      | Some (output, members) ->
          Atomic.incr t.patches;
          locked t (fun () ->
              if entry.deps == seen then (
                entry.output <- output;
                entry.members <- Some members;
                restamp t entry;
                Lru.use t.cache node));
          Patched output)

let store t ~view ~key ~deps ?members output =
  let deps = List.map (fun tbl -> (tbl, DB.data_version t.db tbl)) deps in
  locked t (fun () ->
      let evicted = Lru.add t.cache key { view; output; deps; members } in
      ignore (Atomic.fetch_and_add t.evictions evicted))

let invalidate_view t name =
  locked t (fun () ->
      List.iter
        (fun key ->
          Lru.remove t.cache key;
          Atomic.incr t.invalidations)
        (Lru.keys_where t.cache (fun e -> e.view = name)))

let size t = locked t (fun () -> Lru.length t.cache)

let recording t ~key =
  locked t (fun () ->
      match Lru.find t.cache key with
      | Some node -> (
          let entry = Lru.value node in
          match entry.members with Some m -> Some (entry.output, m) | None -> None)
      | None -> None)

let counters t =
  [
    ("result_cache_hits", Atomic.get t.hits);
    ("result_cache_misses", Atomic.get t.misses);
    ("result_cache_invalidations", Atomic.get t.invalidations);
    ("result_cache_evictions", Atomic.get t.evictions);
    ("result_cache_kept", Atomic.get t.kept);
    ("result_cache_patches", Atomic.get t.patches);
  ]
