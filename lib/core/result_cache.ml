(* Data-versioned transform/publish result cache.  See result_cache.mli. *)

module DB = Xdb_rel.Database
module FP = Xdb_rel.Footprint

type entry = {
  view : string;  (** owning view name — schema-evolution invalidation handle *)
  mutable output : string list;
  mutable deps : (string * int) list;  (** (table, data version when stored or re-stamped) *)
  mutable members : Xdb_rel.Exec.members option;  (** where its patchable members lie *)
  mutable last_used : int;  (** recency tick for LRU eviction *)
}

type t = {
  db : DB.t;
  lock : Mutex.t;  (** guards [cache], [tick] and entry recency *)
  cache : (string, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
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
    cache = Hashtbl.create 32;
    capacity = max 1 capacity;
    tick = 0;
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
        Atomic.incr t.evictions
  done

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

let find t ~key ?footprint ?patch () =
  let verdict =
    locked t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | None -> `Miss
        | Some entry -> (
            match (judge t footprint entry, entry.members, patch) with
            | ((`Fresh | `Keep) as v), _, _ ->
                (* kept: no write since reached what the output was computed from *)
                if v = `Keep then (
                  restamp t entry;
                  Atomic.incr t.kept);
                touch t entry;
                Atomic.incr t.hits;
                `Hit entry.output
            | `Patch changes, Some members, Some patch ->
                `Patch (entry, entry.deps, entry.output, members, changes, patch)
            | _ ->
                Hashtbl.remove t.cache key;
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
  | `Patch (entry, seen, output, members, changes, patch) -> (
      (* outside the lock: concurrent readers patch on their own, and a
         patch is installed only over the entry at the versions it was
         patched from — the first install wins *)
      match patch output members changes with
      | None ->
          Atomic.incr t.invalidations;
          Atomic.incr t.misses;
          locked t (fun () ->
              match Hashtbl.find_opt t.cache key with
              | Some e when e == entry && e.deps == seen -> Hashtbl.remove t.cache key
              | _ -> ());
          Dropped
      | Some (output, members) ->
          Atomic.incr t.patches;
          locked t (fun () ->
              if entry.deps == seen then (
                entry.output <- output;
                entry.members <- Some members;
                restamp t entry;
                touch t entry));
          Patched output)

let store t ~view ~key ~deps ?members output =
  let deps = List.map (fun tbl -> (tbl, DB.data_version t.db tbl)) deps in
  locked t (fun () ->
      let entry = { view; output; deps; members; last_used = 0 } in
      touch t entry;
      Hashtbl.replace t.cache key entry;
      evict_over_capacity t)

let invalidate_view t name =
  locked t (fun () ->
      let victims =
        Hashtbl.fold (fun key e acc -> if e.view = name then key :: acc else acc) t.cache []
      in
      List.iter
        (fun key ->
          Hashtbl.remove t.cache key;
          Atomic.incr t.invalidations)
        victims)

let size t = locked t (fun () -> Hashtbl.length t.cache)

let counters t =
  [
    ("result_cache_hits", Atomic.get t.hits);
    ("result_cache_misses", Atomic.get t.misses);
    ("result_cache_invalidations", Atomic.get t.invalidations);
    ("result_cache_evictions", Atomic.get t.evictions);
    ("result_cache_kept", Atomic.get t.kept);
    ("result_cache_patches", Atomic.get t.patches);
  ]
