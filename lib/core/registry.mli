(** Compiled-stylesheet registry with automatic recompilation on schema
    evolution (paper §7.3): compilations are cached per (view, stylesheet)
    together with the view's structural fingerprint (computed once, at
    {!register_view}) and, for optimised plans, the catalog's statistics
    version; re-registering a view with a different shape — or
    re-ANALYZEing the database — invalidates the entry so plans are
    re-costed against fresh statistics.

    An ad-hoc stylesheet is keyed on its {e shape} ({!Shape.cut}): its
    text with the integer literals of [select]/[test] values cut out.
    The first text of a shape compiles it once with each slot as a plan
    parameter, optimises the plan with the parameters in place, and
    caches that template with its optimised variant: the plan, the
    cost model's logged reads of the slots' values, the statistics
    version and the tables' row counts ({!Pipeline.optimise}).  A later
    text replays the log with its own literals ({!Pipeline.replays}); when
    every estimate comes out bit-identical (and nothing else moved) it
    binds the variant with no optimiser run ({!Pipeline.bind}), else it
    optimises afresh and the result replaces the variant.  Either way it
    gets the plan a compile of the exact text makes.  A shape whose slots
    cannot all become comparison parameters is recorded unshareable, and
    its texts (like texts with no slot) are cached by exact text.  Stylesheets for shredded documents
    share the same LRU under their own key space ({!shredded}), compiled
    once per stylesheet text.

    Thread safety: lookup, insert and LRU eviction are guarded by an
    internal mutex and the observability counters are atomics, so many
    domains may {!compile}/{!run} against one registry concurrently.
    Stylesheet compilation runs outside the lock; concurrent misses on
    the same key may compile twice (both counted), last insert wins. *)

type t

exception Registry_error of string

val create : ?capacity:int -> Xdb_rel.Database.t -> t
(** [capacity] bounds the number of cached entries — plans, templates,
    unshareable-shape marks and shredded programs — (default 64, minimum
    1); the least recently used entry is evicted when exceeded. *)

val register_view : t -> Xdb_rel.Publish.view -> unit
(** (Re)register a view; replacing a view of the same name models schema
    evolution. *)

val find_view : t -> string -> Xdb_rel.Publish.view
(** The registered view of that name.
    @raise Registry_error when absent. *)

val find_view_opt : t -> string -> Xdb_rel.Publish.view option

val views : t -> (string * Xdb_rel.Publish.view) list
(** All registered views, newest first. *)

val views_version : t -> int
(** Monotonic counter bumped by every {!register_view} — prepared
    statements compare it (with the catalog's stats version) to skip
    registry work entirely while nothing changed. *)

val compile :
  ?options:Options.t ->
  ?metrics:Metrics.t ->
  t ->
  view_name:string ->
  stylesheet:string ->
  Pipeline.compiled
(** Cached compilation; recompiles when the view's structural fingerprint
    changed since the cached compile.  A text of a shared shape is a
    [cache_hit] that binds the literals to the template's optimised
    variant when the binding replays it, and optimises the template
    otherwise.  [metrics] records per-stage compile timings (incl. the
    optimiser's [opt_*] passes) when the call compiles, and the [opt_*]
    passes of a binding that optimises; an exact-text hit and a replayed
    binding record nothing.
    @raise Registry_error for unknown views. *)

val shredded : ?metrics:Metrics.t -> t -> stylesheet:string -> Shred_vm.program
(** The stylesheet compiled for shredded documents
    ({!Pipeline.compile_shredded}), cached per stylesheet text in the
    same LRU as view plans.  [metrics] records the compile stages on a
    miss only.  Counted in [shred_hits] / [shred_misses], not in the
    view-plan counters.
    @raise Xdb_xslt.Parser.Stylesheet_error and the compile errors of
    {!Pipeline.compile_shredded}. *)

val run : ?options:Options.t -> t -> view_name:string -> stylesheet:string -> string list
(** Rewrite-evaluate with auto-recompile. *)

val recompilations : t -> int
(** Number of (re)compilations performed — observability for tests. *)

val counters : t -> (string * int) list
(** Cache observability counters in stable order: [cache_hits] (fresh
    entry served), [cache_misses] (first compile), [cache_stale] (entry
    invalidated by schema evolution or re-ANALYZE), [recompilations]
    (= misses + stale), [cache_evictions] (entries dropped by LRU
    bounding, shredded programs included), [cache_unshareable] (shapes
    recorded unshareable: each compiled once as a template attempt,
    besides its texts' own compiles), [template_optimizations]
    (optimiser runs over a template: one per template compile and one
    per binding that did not replay the current variant), [shred_hits]
    and [shred_misses] (shredded programs served from the cache /
    compiled). *)
