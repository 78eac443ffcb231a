(** A capacity-bounded table with least-recently-used eviction, shared by
    {!Registry} and {!Result_cache}.

    A hash table maps each key to a node of a doubly linked recency
    list, newest first, so a lookup, a use, an insert and an eviction
    are all O(1).  An insert or a {!use} makes an entry the newest; an
    insert past [capacity] drops the oldest entries.

    A caller may also keep a node and read it later without the table
    ({!live}, {!value}); such a read marks its use with {!reference}
    instead of moving the node.  Eviction gives a referenced oldest
    entry a second chance: its bit is cleared and it becomes the newest,
    and the scan goes on to the next oldest.  The entry being inserted
    is never the one evicted while an older one can go.  A table
    created with [~dead] swaps that value into every node that leaves
    it (removed, replaced or evicted), so a node held past its entry
    keeps nothing of the entry alive.

    The table is a functor over its key ({!Make}), so a key may carry
    its own hash: a long key is then hashed once, when it is made, and
    never again by a lookup, an insert or an eviction.

    Not thread-safe: both caches call {!find}, {!use}, {!add},
    {!set_value} and {!remove} under their own lock.  {!live}, {!value}
    and {!reference} are plain field accesses that may race with them:
    a racing reader sees the old or the new value, and a lost mark only
    costs its entry the second chance. *)

module Make (K : Hashtbl.HashedType) : sig
  type key = K.t

  type 'v t

  type 'v node
  (** One entry: its key's value until it is removed or replaced. *)

  val create : ?dead:'v -> int -> 'v t
  (** An empty table holding at most [max 1 capacity] entries.  [dead]
      is the value a node holds once it has left the table. *)

  val find : 'v t -> key -> 'v node option
  (** The entry under the key; its recency does not change. *)

  val value : 'v node -> 'v
  (** The entry's value; [dead], if the table has one, once the node has
      left the table. *)

  val set_value : 'v node -> 'v -> unit
  (** Replace the entry's value in place; its recency does not change. *)

  val live : 'v node -> bool
  (** Still the table's entry for its key: not removed, replaced or
      evicted. *)

  val reference : 'v node -> unit
  (** Mark a use made through a held node, honoured by the next eviction
      that reaches it (second chance). *)

  val use : 'v t -> 'v node -> unit
  (** Make the entry the newest; nothing once it was removed or replaced. *)

  val add : 'v t -> key -> 'v -> 'v node
  (** Insert or replace as the newest entry, then evict the oldest
      unreferenced ones past capacity; returns the entry's node.  One
      lookup and one replace of the key, and one removal per victim. *)

  val evictions : 'v t -> int
  (** Entries {!add} has evicted since the table was created. *)

  val remove : 'v t -> key -> unit

  val length : 'v t -> int

  val keys_where : 'v t -> ('v -> bool) -> key list
  (** Keys whose value satisfies the predicate, in no particular order. *)
end
