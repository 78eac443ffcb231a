(* Data-versioned transform/publish result cache.  See result_cache.mli. *)

module DB = Xdb_rel.Database
module FP = Xdb_rel.Footprint

(* an entry's state, which the cache never mutates: a keep, a patch or a
   re-store swaps a fresh one into the entry's node (only the member
   recording changes inside, spent by a patch under its own lock) *)
type snapshot = {
  view : string;  (** owning view name — schema-evolution invalidation handle *)
  output : string list;
  deps : (string * int) list;  (** (table, data version when stored or re-stamped) *)
  members : Xdb_rel.Exec.members option;  (** where its patchable members lie *)
}

type node = (string, snapshot) Lru.node

(* what a node holds once it has left the cache, so that a slot still
   holding it keeps no page alive *)
let gone = { view = ""; output = []; deps = []; members = None }

type slot = { mutable pinned : node option }

type t = {
  db : DB.t;
  lock : Mutex.t;  (** guards [cache]'s table, recency list and value swaps *)
  cache : (string, snapshot) Lru.t;
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
    cache = Lru.create ~dead:gone capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    invalidations = Atomic.make 0;
    evictions = Atomic.make 0;
    kept = Atomic.make 0;
    patches = Atomic.make 0;
  }

let locked t f = Mutex.protect t.lock f

let slot () = { pinned = None }

let pin slot node =
  match slot with
  | Some s -> (
      match s.pinned with Some n when n == node -> () | _ -> s.pinned <- Some node)
  | None -> ()

let restamp t s = { s with deps = List.map (fun (tbl, _) -> (tbl, DB.data_version t.db tbl)) s.deps }

(* no write since the snapshot was stored: every dependency at its version *)
let rec fresh t = function
  | [] -> true
  | (tbl, v) :: rest -> DB.data_version t.db tbl = v && fresh t rest

(* the lock-free read: the pinned node's snapshot, then its versions.
   The engine's read lock keeps every data version still meanwhile; a
   snapshot read just before a concurrent swap was right at its own
   versions.  A node that has left the cache holds [gone], and the slot
   lets go of it *)
let hit t slot =
  match slot.pinned with
  | None -> None
  | Some node ->
      let s = Lru.value node in
      if s == gone then (
        slot.pinned <- None;
        None)
      else if fresh t s.deps then (
        Lru.reference node;
        Atomic.incr t.hits;
        Some s.output)
      else None

(* what the writes since [s] was stored mean for it under [footprint]:
   [`Fresh] (none), [`Keep] (none it reads), [`Patch changes] (only the
   members these rows reach, per table), or [`Drop] — also when a write
   is not a logged UPDATE *)
let judge t footprint s =
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
  match List.iter judge_table s.deps with
  | () when not !moved -> `Fresh
  | () -> if !patched = [] then `Keep else `Patch !patched
  | exception Drop -> `Drop

let find t ~key ?(footprint = fun () -> None) ?patch ?slot () =
  (* an entry no write has reached is served without the footprint,
     which is forced only once a dependency moved, outside the lock (it
     may compile).  Data versions stay put in between: the engine
     serializes DML against reads. *)
  let first =
    locked t (fun () ->
        match Lru.find t.cache key with
        | None -> `Miss
        | Some node when fresh t (Lru.value node).deps ->
            Lru.use t.cache node;
            Atomic.incr t.hits;
            pin slot node;
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
                let s = Lru.value node in
                match (judge t footprint s, s.members, patch) with
                | ((`Fresh | `Keep) as v), _, _ ->
                    (* kept: no write since reached what the output was computed from *)
                    if v = `Keep then (
                      Lru.set_value node (restamp t s);
                      Atomic.incr t.kept);
                    Lru.use t.cache node;
                    Atomic.incr t.hits;
                    pin slot node;
                    `Hit s.output
                | `Patch changes, Some members, Some patch ->
                    `Patch (node, s, members, changes, patch)
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
  | `Patch (node, seen, members, changes, patch) -> (
      (* outside the lock: concurrent readers patch on their own, and a
         patch is installed only over the snapshot it was patched from —
         the first install wins *)
      let unchanged () = Lru.live node && Lru.value node == seen in
      match patch seen.output members changes with
      | None ->
          Atomic.incr t.invalidations;
          Atomic.incr t.misses;
          locked t (fun () -> if unchanged () then Lru.remove t.cache key);
          Dropped
      | Some (output, members) ->
          Atomic.incr t.patches;
          locked t (fun () ->
              if unchanged () then (
                Lru.set_value node (restamp t { seen with output; members = Some members });
                Lru.use t.cache node;
                pin slot node));
          Patched output)

let store t ~view ~key ~deps ?members ?slot output =
  let deps = List.map (fun tbl -> (tbl, DB.data_version t.db tbl)) deps in
  locked t (fun () ->
      let evicted = Lru.add t.cache key { view; output; deps; members } in
      ignore (Atomic.fetch_and_add t.evictions evicted);
      match slot with
      | Some _ -> Option.iter (pin slot) (Lru.find t.cache key)
      | None -> ())

let invalidate_view t name =
  locked t (fun () ->
      List.iter
        (fun key ->
          Lru.remove t.cache key;
          Atomic.incr t.invalidations)
        (Lru.keys_where t.cache (fun s -> s.view = name)))

let size t = locked t (fun () -> Lru.length t.cache)

let recording t ~key =
  locked t (fun () ->
      match Lru.find t.cache key with
      | Some node -> (
          let s = Lru.value node in
          match s.members with Some m -> Some (s.output, m) | None -> None)
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
