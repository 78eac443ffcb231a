(** Compiled-stylesheet registry with automatic recompilation on schema
    evolution (paper §7.3: "this recompilation process is automated because
    the XSLT query has dependency on the XML schema whose change is tracked
    by the database system").

    Compilations are cached per (view, stylesheet).  Each cache entry
    records the fingerprint of the view's structural information, computed
    once when the view is registered; when a view is re-registered with a
    different shape — schema evolution — the next use recompiles against
    the new structure instead of serving the stale plan.  An optimised plan
    also records the catalog's statistics version, so a re-ANALYZE re-costs
    it.

    An ad-hoc stylesheet is keyed on its {e shape} ({!Shape.cut}): the
    text with the integer literals of its [select]/[test] values cut out.
    The first text of a shape compiles it once with each slot as a plan
    parameter ({!Pipeline.compile_template}); the registry keeps that
    template with one optimised {e variant} of its plan.  A later text
    binds its literals to the variant when they replay its logged
    cost-model reads ({!Pipeline.replays}), and otherwise optimises the
    template for them and replaces the variant (counted in
    [template_optimizations]), so each binding gets the plan a compile
    of its own text would.  A variant keeps its plan's executable
    ({!Xdb_rel.Exec.kept}), compiled on the first run with each [Param]
    read from the run's parameter row: a binding that replays the
    variant compiles nothing, and runs that executable on its literals.
    An exact-text entry keeps its compiled record, and with it the
    record's executable.  An ANALYZE moves the statistics version, so
    the next binding re-optimises; the template itself does not go
    stale.  A shape whose slots cannot all become comparison parameters
    is recorded {e unshareable}, once, and its texts compile by exact
    text; so does a text with no slot.

    The cache is bounded by an O(1) LRU ({!Lru}): past the configured
    capacity the least recently used entry is evicted (counted in
    [cache_evictions]).

    Stylesheets run over shredded documents are cached in the same LRU
    under their own key space ({!shredded}): compiled once per stylesheet
    text into a {!Shred_vm.program}, with their own hit/miss counters.
    They depend on no view, so nothing makes them stale.

    Thread safety: the view list and the cache are guarded by one mutex,
    taken once per {!compile} (view, entry and, for an unshareable
    shape, its exact-text entry in one critical section), so many
    domains can {!compile}/{!run} concurrently (Engine keeps a single
    registry per instance).  The actual stylesheet compilation runs
    {e outside} the lock — two domains missing on the same key may both
    compile; the loser's entry is simply replaced, and the counters
    (atomics) count both recompilations, so
    [recompilations = cache_misses + cache_stale] still holds. *)

module P = Xdb_rel.Publish
module S = Xdb_schema.Types

(* a shared shape: its template and the variant most recently optimised
   for one of its bindings, replaced when a binding's reads do not
   replay *)
type shape = { template : Pipeline.template; variant : Pipeline.variant Atomic.t }

type payload =
  | Plan of Pipeline.compiled
  | Template of shape
  | Unshareable  (** the shape's texts compile by exact text *)
  | Shredded of Shred_vm.program

type entry = {
  view_fp : string;  (** the view's structural fingerprint at compile time *)
  stats : int;  (** the catalog's statistics version at compile time *)
  payload : payload;
}

(* (view name, stylesheet text) for exact plans, (view name, shape) for
   templates; a shredded program's key cannot collide with any of them *)
type key = View_key of string * string | Shape_key of string * string | Shred_key of string

module Lru = Lru.Make (struct
  type t = key

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type t = {
  db : Xdb_rel.Database.t;
  lock : Mutex.t;  (** guards [views] and [cache] *)
  mutable views : (string * (P.view * string)) list;
      (** each registered view with its fingerprint *)
  cache : entry Lru.t;
  views_version : int Atomic.t;
      (** bumped by every {!register_view} — prepared statements compare
          it (with the stats version) to skip registry lookups on hot
          paths, falling back to {!compile} only when it moved *)
  recompilations : int Atomic.t;  (** observability for tests/benches *)
  cache_hits : int Atomic.t;  (** fresh cache entry served *)
  cache_misses : int Atomic.t;  (** no cache entry — first compile *)
  cache_stale : int Atomic.t;  (** entry invalidated by schema evolution *)
  cache_unshareable : int Atomic.t;  (** shapes recorded unshareable *)
  template_optimizations : int Atomic.t;  (** optimiser runs for bindings *)
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
    cache = Lru.create capacity;
    views_version = Atomic.make 0;
    recompilations = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    cache_stale = Atomic.make 0;
    cache_unshareable = Atomic.make 0;
    template_optimizations = Atomic.make 0;
    shred_hits = Atomic.make 0;
    shred_misses = Atomic.make 0;
  }

let locked t f = Mutex.protect t.lock f

(* canonical textual form of a view's structural information: declaration
   lines sorted so hash-table order does not leak into the fingerprint *)
let fingerprint_of view =
  let lines = String.split_on_char '\n' (S.to_string (P.to_schema view)) in
  String.concat "\n" (List.sort compare lines)

(** [register_view t view] — (re)register; replaces any previous view with
    the same name (schema evolution). *)
let register_view t (view : P.view) =
  let fp = fingerprint_of view in
  locked t (fun () ->
      t.views <- (view.P.view_name, (view, fp)) :: List.remove_assoc view.P.view_name t.views);
  Atomic.incr t.views_version

let views_version t = Atomic.get t.views_version

let find_registered t name = locked t (fun () -> List.assoc_opt name t.views)

let find_view_opt t name = Option.map fst (find_registered t name)

let views t = locked t (fun () -> List.map (fun (n, (v, _)) -> (n, v)) t.views)

let find_view t name =
  match find_view_opt t name with
  | Some v -> v
  | None -> raise (Registry_error (Printf.sprintf "unknown view %S" name))

(* [`Fresh payload] when the entry under [key] is [fresh] (made the most
   recently used), [`Stale] or [`Absent] otherwise; under the lock *)
let probe t key ~fresh =
  match Lru.find t.cache key with
  | Some n when fresh (Lru.value n) ->
      Lru.use t.cache n;
      `Fresh (Lru.value n).payload
  | Some _ -> `Stale
  | None -> `Absent

let lookup t key ~fresh = locked t (fun () -> probe t key ~fresh)

let insert t key entry = locked t (fun () -> ignore (Lru.add t.cache key entry))

(* a miss or a stale entry, counted; the compile that follows is a
   recompilation *)
let count_rebuild t = function
  | `Stale -> Atomic.incr t.cache_stale
  | `Absent -> Atomic.incr t.cache_misses

(* the exact-text plan: fresh while the view's structure and the
   statistics it was costed against are unchanged (a re-ANALYZE
   re-costs it) *)
let exact_fresh fp stats e = String.equal e.view_fp fp && e.stats = stats

let compile_exact ~options ?metrics t ~view_name view fp ~stylesheet stats = function
  | `Fresh (Plan c) ->
      Atomic.incr t.cache_hits;
      c
  | `Fresh _ -> assert false (* keys never mix *)
  | (`Stale | `Absent) as why ->
      count_rebuild t why;
      let c = Pipeline.compile ~options ?metrics t.db view stylesheet in
      Atomic.incr t.recompilations;
      insert t (View_key (view_name, stylesheet)) { view_fp = fp; stats; payload = Plan c };
      c

(** [compile t ~view_name ~stylesheet] — cached compilation; recompiles
    when the view's structural fingerprint has changed since the cached
    compile (or on first use), and binds a shared shape's literals.  Safe
    to call from several domains at once: the view and the cache entry
    are found under one lock, and compilation runs outside it.
    [metrics] records per-stage compile timings on a compile, and the
    optimiser passes of a binding. *)
let compile ?(options = Options.default) ?metrics t ~view_name ~stylesheet : Pipeline.compiled =
  let cut = Shape.cut stylesheet in
  let stats = Xdb_rel.Database.stats_version t.db in
  (* an unshareable shape's texts are looked up by exact text in the
     same critical section *)
  let view, fp, found =
    locked t (fun () ->
        match List.assoc_opt view_name t.views with
        | None -> raise (Registry_error (Printf.sprintf "unknown view %S" view_name))
        | Some (view, fp) ->
            let exact () = probe t (View_key (view_name, stylesheet)) ~fresh:(exact_fresh fp stats) in
            ( view,
              fp,
              match cut with
              | None -> `Exact (exact ())
              | Some (shape, values) -> (
                  (* only schema evolution stales a template: its variant
                     checks the statistics version itself *)
                  match probe t (Shape_key (view_name, shape)) ~fresh:(fun e -> String.equal e.view_fp fp) with
                  | `Fresh Unshareable -> `Exact (exact ())
                  | found -> `Shape (shape, values, found)) ))
  in
  match found with
  | `Exact found -> compile_exact ~options ?metrics t ~view_name view fp ~stylesheet stats found
  | `Shape (_, values, `Fresh (Template s)) ->
      Atomic.incr t.cache_hits;
      let v = Atomic.get s.variant in
      let v =
        if Pipeline.replays t.db v values then v
        else begin
          let v = Pipeline.optimise ?metrics t.db s.template values in
          Atomic.incr t.template_optimizations;
          Atomic.set s.variant v;
          v
        end
      in
      Pipeline.bind s.template v values
  | `Shape (_, _, `Fresh _) -> assert false (* keys never mix *)
  | `Shape (shape, values, ((`Stale | `Absent) as why)) -> (
      let key = Shape_key (view_name, shape) in
      let entry payload = { view_fp = fp; stats = 0; payload } in
      match Pipeline.compile_template ~options ?metrics t.db view shape values with
      | Some (template, v, c) ->
          count_rebuild t why;
          Atomic.incr t.recompilations;
          Atomic.incr t.template_optimizations;
          insert t key (entry (Template { template; variant = Atomic.make v }));
          c
      | None ->
          Atomic.incr t.cache_unshareable;
          insert t key (entry Unshareable);
          compile_exact ~options ?metrics t ~view_name view fp ~stylesheet stats
            (lookup t (View_key (view_name, stylesheet)) ~fresh:(exact_fresh fp stats)))

(** [shredded t ~stylesheet] — the stylesheet compiled for shredded
    documents, once per stylesheet text.  [metrics] records the compile
    stages on a miss only. *)
let shredded ?metrics t ~stylesheet : Shred_vm.program =
  let key = Shred_key stylesheet in
  match lookup t key ~fresh:(fun _ -> true) with
  | `Fresh (Shredded p) ->
      Atomic.incr t.shred_hits;
      p
  | `Fresh _ -> assert false (* keys never mix *)
  | `Stale | `Absent ->
      Atomic.incr t.shred_misses;
      let p = Pipeline.compile_shredded ?metrics stylesheet in
      insert t key { view_fp = ""; stats = 0; payload = Shredded p };
      p

(** [run t ~view_name ~stylesheet] — rewrite-evaluate with auto-recompile. *)
let run ?options t ~view_name ~stylesheet : string list =
  let compiled = compile ?options t ~view_name ~stylesheet in
  Pipeline.run_rewrite t.db compiled

let recompilations t = Atomic.get t.recompilations

(** Cache observability counters, stable order.  [recompilations] equals
    [cache_misses + cache_stale]; [cache_unshareable] counts shapes found
    unshareable (each compiled once as a template attempt besides its
    exact texts); [template_optimizations] counts optimiser runs over
    templates; [shred_misses] counts shredded-program compiles, apart
    from them. *)
let counters t =
  [
    ("cache_hits", Atomic.get t.cache_hits);
    ("cache_misses", Atomic.get t.cache_misses);
    ("cache_stale", Atomic.get t.cache_stale);
    ("recompilations", Atomic.get t.recompilations);
    ("cache_evictions", locked t (fun () -> Lru.evictions t.cache));
    ("cache_unshareable", Atomic.get t.cache_unshareable);
    ("template_optimizations", Atomic.get t.template_optimizations);
    ("shred_hits", Atomic.get t.shred_hits);
    ("shred_misses", Atomic.get t.shred_misses);
  ]
