(* Hash table + intrusive recency list: O(1) LRU.  See lru.mli. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable live : bool;  (** still the table's entry for [key] *)
  mutable newer : ('k, 'v) node option;
  mutable older : ('k, 'v) node option;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  capacity : int;
  mutable newest : ('k, 'v) node option;
  mutable oldest : ('k, 'v) node option;
}

let create capacity =
  { table = Hashtbl.create 32; capacity = max 1 capacity; newest = None; oldest = None }

let unlink t n =
  (match n.newer with Some m -> m.older <- n.older | None -> t.newest <- n.older);
  (match n.older with Some m -> m.newer <- n.newer | None -> t.oldest <- n.newer);
  n.newer <- None;
  n.older <- None

let push_newest t n =
  n.older <- t.newest;
  (match t.newest with Some m -> m.newer <- Some n | None -> t.oldest <- Some n);
  t.newest <- Some n

let find t k = Hashtbl.find_opt t.table k

let value n = n.value

let use t n =
  match t.newest with
  | Some m when m == n -> ()
  | _ when n.live ->
      unlink t n;
      push_newest t n
  | _ -> ()

let remove t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      unlink t n;
      n.live <- false;
      Hashtbl.remove t.table k
  | None -> ()

let add t k v =
  remove t k;
  let n = { key = k; value = v; live = true; newer = None; older = None } in
  Hashtbl.replace t.table k n;
  push_newest t n;
  let evicted = ref 0 in
  while Hashtbl.length t.table > t.capacity do
    match t.oldest with
    | Some victim ->
        remove t victim.key;
        incr evicted
    | None -> assert false (* non-empty: length > capacity >= 1 *)
  done;
  !evicted

let length t = Hashtbl.length t.table

let keys_where t p = Hashtbl.fold (fun k n acc -> if p n.value then k :: acc else acc) t.table []
