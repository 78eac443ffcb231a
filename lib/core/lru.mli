(** A capacity-bounded table with least-recently-used eviction, shared by
    {!Registry} and {!Result_cache}.

    A hash table maps each key to a node of a doubly linked recency
    list, newest first, so a lookup, a use, an insert and an eviction
    are all O(1).  An insert or a {!use} makes an entry the newest; an
    insert past [capacity] drops the oldest entries.  Not thread-safe:
    both caches call it under their own lock. *)

type ('k, 'v) t

type ('k, 'v) node
(** One entry: its key's value until it is removed or replaced. *)

val create : int -> ('k, 'v) t
(** An empty table holding at most [max 1 capacity] entries. *)

val find : ('k, 'v) t -> 'k -> ('k, 'v) node option
(** The entry under the key; its recency does not change. *)

val value : ('k, 'v) node -> 'v

val use : ('k, 'v) t -> ('k, 'v) node -> unit
(** Make the entry the newest; nothing once it was removed or replaced. *)

val add : ('k, 'v) t -> 'k -> 'v -> int
(** Insert or replace as the newest entry, then evict the oldest ones
    past capacity; returns how many were evicted. *)

val remove : ('k, 'v) t -> 'k -> unit

val length : ('k, 'v) t -> int

val keys_where : ('k, 'v) t -> ('v -> bool) -> 'k list
(** Keys whose value satisfies the predicate, in no particular order. *)
