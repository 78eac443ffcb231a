(** In-memory B-tree index: {!Value.t} keys to row-id lists.

    Classic order-[b] B-tree with node splitting on insert.  Duplicate keys
    accumulate their row ids in the leaf entry.  Supports point lookup and
    inclusive/exclusive range scans — the access paths the optimiser uses
    for sargable predicates (paper §2.1: "uses B-tree index to compute the
    predicate"). *)

type key = Value.t

let branching = 32 (* max keys per node *)

type node =
  | Leaf of { mutable keys : key array; mutable rows : int list array }
  | Internal of { mutable keys : key array; mutable kids : node array }

type t = {
  mutable root : node;
  mutable count : int;  (** number of (key, row) insertions *)
  probes : int Atomic.t;  (** find/range invocations — observability *)
  node_visits : int Atomic.t;  (** nodes touched while probing *)
}
(* Concurrency contract: [root]/[count] mutate only during load-time
   [insert]; after a table's indexes are built the tree structure is
   immutable and probed concurrently by executor domains.  The probe
   counters are the one piece of state mutated on the read path, so they
   are atomics — a plain int would be a data race under domain-parallel
   execution (and would drop increments). *)

let create () =
  {
    root = Leaf { keys = [||]; rows = [||] };
    count = 0;
    probes = Atomic.make 0;
    node_visits = Atomic.make 0;
  }

let cmp = Value.compare_key

(* position of the first key >= k (lower bound) *)
let lower_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp keys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* position of the first key > k (upper bound); in an internal node, the
   child whose subtree holds k — separators equal the first key of their
   right subtree *)
let upper_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp keys.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

type split = No_split | Split of key * node

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let rec insert_node node k row : split =
  match node with
  | Leaf l ->
      let i = lower_bound l.keys k in
      if i < Array.length l.keys && cmp l.keys.(i) k = 0 then (
        l.rows.(i) <- row :: l.rows.(i);
        No_split)
      else (
        l.keys <- array_insert l.keys i k;
        l.rows <- array_insert l.rows i [ row ];
        if Array.length l.keys <= branching then No_split
        else
          let mid = Array.length l.keys / 2 in
          let rkeys = Array.sub l.keys mid (Array.length l.keys - mid) in
          let rrows = Array.sub l.rows mid (Array.length l.rows - mid) in
          l.keys <- Array.sub l.keys 0 mid;
          l.rows <- Array.sub l.rows 0 mid;
          Split (rkeys.(0), Leaf { keys = rkeys; rows = rrows }))
  | Internal n ->
      let i = upper_bound n.keys k in
      (match insert_node n.kids.(i) k row with
      | No_split -> No_split
      | Split (sep, right) ->
          n.keys <- array_insert n.keys i sep;
          n.kids <- array_insert n.kids (i + 1) right;
          if Array.length n.kids <= branching then No_split
          else
            let mid = Array.length n.keys / 2 in
            let sep = n.keys.(mid) in
            let rkeys = Array.sub n.keys (mid + 1) (Array.length n.keys - mid - 1) in
            let rkids = Array.sub n.kids (mid + 1) (Array.length n.kids - mid - 1) in
            n.keys <- Array.sub n.keys 0 mid;
            n.kids <- Array.sub n.kids 0 (mid + 1);
            Split (sep, Internal { keys = rkeys; kids = rkids }))

let insert t k row =
  t.count <- t.count + 1;
  match insert_node t.root k row with
  | No_split -> ()
  | Split (sep, right) -> t.root <- Internal { keys = [| sep |]; kids = [| t.root; right |] }

let array_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

(* drop one occurrence of [rid] from the list, preserving order *)
let rec list_remove_one rid = function
  | [] -> []
  | r :: rest -> if r = rid then rest else r :: list_remove_one rid rest

(** [remove t k rid] — delete one [(k, rid)] entry; [true] iff it was
    present.  A key whose rid list empties is dropped from its leaf, but
    nodes are never rebalanced or merged: UPDATE/DELETE volumes are tiny
    next to the bulk-loaded tree, so an underfull (even empty) leaf is
    harmless — every traversal tolerates it — and DELETE-heavy paths
    rebuild their indexes wholesale ({!Table.delete}).  Mutation, like
    {!insert}, requires exclusive access (the engine's writer side). *)
let remove t k rid =
  let rec go n =
    match n with
    | Leaf l ->
        let i = lower_bound l.keys k in
        if i < Array.length l.keys && cmp l.keys.(i) k = 0 && List.mem rid l.rows.(i)
        then (
          (match list_remove_one rid l.rows.(i) with
          | [] ->
              l.keys <- array_remove l.keys i;
              l.rows <- array_remove l.rows i
          | rows -> l.rows.(i) <- rows);
          true)
        else false
    | Internal n ->
        go n.kids.(upper_bound n.keys k)
  in
  let removed = go t.root in
  if removed then t.count <- t.count - 1;
  removed

(** [find t k] — row ids with key exactly [k], in insertion order. *)
let find t k =
  Atomic.incr t.probes;
  let rec go n =
    Atomic.incr t.node_visits;
    match n with
    | Leaf l ->
        let i = lower_bound l.keys k in
        if i < Array.length l.keys && cmp l.keys.(i) k = 0 then List.rev l.rows.(i) else []
    | Internal n ->
        go n.kids.(upper_bound n.keys k)
  in
  go t.root

type bound = Unbounded | Inclusive of key | Exclusive of key

let above_lo lo k =
  match lo with
  | Unbounded -> true
  | Inclusive b -> cmp k b >= 0
  | Exclusive b -> cmp k b > 0

let below_hi hi k =
  match hi with
  | Unbounded -> true
  | Inclusive b -> cmp k b <= 0
  | Exclusive b -> cmp k b < 0

(* The one range descent: [each key rids] for every key within the
   bounds, in key order, [rids] as stored (newest first).  An internal
   node's children [lower_bound lo .. upper_bound hi] are the ones that
   can intersect the range, and a leaf's keys within it are one slice,
   both found by binary search.  Counts as one probe. *)
let walk t ~lo ~hi each =
  Atomic.incr t.probes;
  let rec go node =
    Atomic.incr t.node_visits;
    match node with
    | Leaf l ->
        let keys = l.keys in
        let first =
          match lo with
          | Unbounded -> 0
          | Inclusive b -> lower_bound keys b
          | Exclusive b -> upper_bound keys b
        in
        let stop =
          match hi with
          | Unbounded -> Array.length keys
          | Inclusive b -> upper_bound keys b
          | Exclusive b -> lower_bound keys b
        in
        for i = first to stop - 1 do
          each keys.(i) l.rows.(i)
        done
    | Internal n ->
        let first =
          match lo with Unbounded -> 0 | Inclusive b | Exclusive b -> lower_bound n.keys b
        in
        let last =
          match hi with
          | Unbounded -> Array.length n.keys
          | Inclusive b | Exclusive b -> upper_bound n.keys b
        in
        for i = first to last do
          go n.kids.(i)
        done
  in
  go t.root

(** [range t ~lo ~hi] — (key, row-id) pairs within the bounds, in key
    order, row ids under one key in insertion order. *)
let range t ~lo ~hi =
  let out = ref [] in
  walk t ~lo ~hi (fun k rids -> List.iter (fun r -> out := (k, r) :: !out) (List.rev rids));
  List.rev !out

(** [range_rids t ~lo ~hi] — row ids only, in {!range} order: the
    batch executor's index-scan cursor.  The walk keeps each key's rid
    list as stored; the array is then allocated at its exact size and
    filled from the back. *)
let range_rids t ~lo ~hi =
  let lists = ref [] and n = ref 0 in
  walk t ~lo ~hi (fun _ rids ->
      lists := rids :: !lists;
      n := !n + List.length rids);
  let out = Array.make !n 0 and pos = ref !n in
  let put rid =
    decr pos;
    Array.unsafe_set out !pos rid
  in
  List.iter (List.iter put) !lists;
  out

(** All entries in key order. *)
let to_list t = range t ~lo:Unbounded ~hi:Unbounded

let size t = t.count
let probes t = Atomic.get t.probes
let node_visits t = Atomic.get t.node_visits

let reset_counters t =
  Atomic.set t.probes 0;
  Atomic.set t.node_visits 0

type shape = Leaf_keys of key array | Node_keys of key array * shape array

(** The keys of every node, tree-shaped (tests: reference walks). *)
let shape t =
  let rec go = function
    | Leaf l -> Leaf_keys (Array.copy l.keys)
    | Internal n -> Node_keys (Array.copy n.keys, Array.map go n.kids)
  in
  go t.root

(** Tree height, for tests and EXPLAIN cost estimates. *)
let height t =
  let rec go = function Leaf _ -> 1 | Internal n -> 1 + go n.kids.(0) in
  go t.root

(** Structural invariant check (tests): keys sorted in every node, separator
    keys bound subtrees, all leaves at equal depth. *)
let check_invariants t =
  let rec sorted keys =
    let ok = ref true in
    for i = 0 to Array.length keys - 2 do
      if cmp keys.(i) keys.(i + 1) >= 0 then ok := false
    done;
    !ok
  and go lo hi = function
    | Leaf l ->
        sorted l.keys && Array.for_all (fun k -> above_lo lo k && below_hi hi k) l.keys
    | Internal n ->
        sorted n.keys
        && Array.length n.kids = Array.length n.keys + 1
        && Array.for_all (fun k -> above_lo lo k && below_hi hi k) n.keys
        && Array.length n.kids > 0
        &&
        let ok = ref true in
        Array.iteri
          (fun i kid ->
            let lo' = if i = 0 then lo else Inclusive n.keys.(i - 1) in
            let hi' = if i = Array.length n.keys then hi else Exclusive n.keys.(i) in
            (* separators may equal the first key of the right subtree *)
            let hi' = match hi' with Exclusive k -> Inclusive k | x -> x in
            if not (go lo' hi' kid) then ok := false)
          n.kids;
        !ok
  in
  let rec depth = function Leaf _ -> 1 | Internal n -> 1 + depth n.kids.(0) in
  let rec uniform d = function
    | Leaf _ -> d = 1
    | Internal n -> Array.for_all (uniform (d - 1)) n.kids
  in
  go Unbounded Unbounded t.root && uniform (depth t.root) t.root
