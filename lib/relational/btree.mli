(** In-memory B-tree index: {!Value.t} keys to row-id lists.

    Duplicate keys accumulate their row ids in insertion order.  Point
    lookups and inclusive/exclusive range scans are the access paths the
    optimiser uses for sargable predicates (paper §2.1).

    Concurrency: the tree mutates through {!insert}/{!remove} only under
    exclusive access — at load time, or behind the engine's writer lock
    once DML is live; between writes it is safe to probe from many
    domains at once.  The {!probes}/{!node_visits} observability counters —
    the only state touched on the read path — are atomics, so concurrent
    probes never drop increments. *)

type key = Value.t

type t

val create : unit -> t

val insert : t -> key -> int -> unit
(** [insert t key row_id] — O(log n); splits nodes as needed. *)

val remove : t -> key -> int -> bool
(** [remove t key row_id] — delete one [(key, row_id)] entry; [true] iff
    it was present.  Keys whose rid list empties are dropped; nodes are
    {e not} rebalanced (UPDATE volumes are tiny next to the loaded tree,
    underfull leaves are tolerated by every traversal, and DELETE-heavy
    paths rebuild indexes wholesale).  Like {!insert}, mutation requires
    exclusive access — the engine serializes writers against readers. *)

val find : t -> key -> int list
(** Row ids stored under exactly [key], in insertion order. *)

type bound = Unbounded | Inclusive of key | Exclusive of key

val range : t -> lo:bound -> hi:bound -> (key * int) list
(** Entries within the bounds, in key order (row ids under one key in
    insertion order).  Counts as one probe. *)

val range_rids : t -> lo:bound -> hi:bound -> int array
(** Row ids within the bounds, in {!range} order, without the
    intermediate (key, rid) list — the batch executor's index cursor.
    Counts as one probe.  [range] and [range_rids] share one walk: each
    internal node's children that can intersect the range ([lower_bound
    lo] to [upper_bound hi]) and each leaf's slice within it are found by
    binary search. *)

val to_list : t -> (key * int) list
(** All entries in key order. *)

val size : t -> int
(** Number of insertions performed. *)

val probes : t -> int
(** Cumulative [find]/[range] invocations since creation (or the last
    {!reset_counters}) — EXPLAIN ANALYZE observability. *)

val node_visits : t -> int
(** Cumulative nodes touched while answering probes. *)

val reset_counters : t -> unit
(** Zero {!probes} and {!node_visits}. *)

type shape = Leaf_keys of key array | Node_keys of key array * shape array

val shape : t -> shape
(** A copy of every node's keys, tree-shaped — for tests that check the
    range walk's {!node_visits} against a reference descent. *)

val height : t -> int
(** Tree height (≥ 1), for tests and cost estimates. *)

val check_invariants : t -> bool
(** Structural check: sorted keys, separator bounds, uniform leaf depth. *)
