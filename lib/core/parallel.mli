(** Fixed-size domain pool for data-parallel transform execution.

    The pool spawns [jobs - 1] worker domains (the caller itself is the
    remaining worker: it helps drain the task queue inside {!run}, so
    [jobs = 1] degenerates to plain sequential execution with zero domains
    spawned and no synchronisation beyond an uncontended mutex).

    Tasks are indexed closures; results are written into a slot array keyed
    by task index, so result ordering is deterministic regardless of which
    domain executes which task. The first exception raised by any task is
    captured and re-raised (with its original backtrace) at the join point
    after all tasks have settled.

    Used by {!Pipeline.per_document} to serialize a run's output
    documents across domains (paper §3: the rewrite path turns one
    XMLTransform call into a plan giving one document per base-table
    row, and each document serializes on its own). *)

type t

val default_jobs : unit -> int
(** Number of domains recommended for this machine:
    [Domain.recommended_domain_count ()], clamped to at least 1. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [max jobs 1 - 1] worker domains that block on the
    pool's task queue. The pool is reusable across many {!run} calls. *)

val jobs : t -> int
(** Worker count the pool was created with (including the caller). *)

val run : t -> (int -> 'a) -> int -> 'a array
(** [run pool f n] evaluates [f 0 .. f (n-1)] across the pool's domains and
    returns the results in index order. Blocks until every task has settled.
    Tasks must not themselves call {!run} on the same pool. If one or more
    tasks raise, the first exception observed is re-raised after the join. *)

val chunk_ranges : total:int -> chunks:int -> (int * int) list
(** [chunk_ranges ~total ~chunks] splits [0 .. total-1] into at most
    [chunks] contiguous half-open ranges [(lo, hi)] covering the interval
    in order, balanced to within one element. Returns [[]] when
    [total <= 0]; returns fewer than [chunks] ranges when [total < chunks]
    (never emits an empty range). *)

val shutdown : t -> unit
(** Joins all worker domains. Idempotent; the pool must not be used after.
    Calling {!run} on a shut-down pool raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] creates a pool, applies [f], and shuts the pool down
    (also on exception). *)
