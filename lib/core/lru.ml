(* Hash table + intrusive recency list: O(1) LRU with a second chance
   for entries referenced in place.  See lru.mli. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable live : bool;  (** still the table's entry for [key] *)
  mutable referenced : bool;  (** used through a held node since it last moved *)
  mutable newer : ('k, 'v) node option;
  mutable older : ('k, 'v) node option;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  capacity : int;
  dead : 'v option;  (** what a node that leaves the table holds instead of its value *)
  mutable newest : ('k, 'v) node option;
  mutable oldest : ('k, 'v) node option;
}

let create ?dead capacity =
  { table = Hashtbl.create 32; capacity = max 1 capacity; dead; newest = None; oldest = None }

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
let set_value n v = n.value <- v
let live n = n.live

(* racy by design: a lost or late mark only costs the entry its second
   chance; testing first keeps a hot entry's line unwritten *)
let reference n = if not n.referenced then n.referenced <- true

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
      (match t.dead with Some d -> n.value <- d | None -> ());
      Hashtbl.remove t.table k
  | None -> ()

let add t k v =
  remove t k;
  let n = { key = k; value = v; live = true; referenced = false; newer = None; older = None } in
  Hashtbl.replace t.table k n;
  push_newest t n;
  (* at most one second chance per entry and insert, so marks set by
     racing readers cannot keep the scan going *)
  let evicted = ref 0 and chances = ref (Hashtbl.length t.table) in
  while Hashtbl.length t.table > t.capacity do
    match t.oldest with
    | Some victim when !chances > 0 && (victim.referenced || victim == n) ->
        (* second chance: a referenced entry becomes the newest instead;
           so does the new one, should all older entries have had theirs *)
        decr chances;
        victim.referenced <- false;
        unlink t victim;
        push_newest t victim
    | Some victim ->
        remove t victim.key;
        incr evicted
    | None -> assert false (* non-empty: length > capacity >= 1 *)
  done;
  !evicted

let length t = Hashtbl.length t.table

let keys_where t p = Hashtbl.fold (fun k n acc -> if p n.value then k :: acc else acc) t.table []
