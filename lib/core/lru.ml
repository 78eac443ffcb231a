(* Hash table + intrusive recency list: O(1) LRU with a second chance
   for entries referenced in place.  See lru.mli. *)

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t

  type 'v node = {
    key : key;
    mutable value : 'v;
    mutable live : bool;  (** still the table's entry for [key] *)
    mutable referenced : bool;  (** used through a held node since it last moved *)
    mutable newer : 'v node option;
    mutable older : 'v node option;
  }

  type 'v t = {
    table : 'v node H.t;
    capacity : int;
    dead : 'v option;  (** what a node that leaves the table holds instead of its value *)
    mutable newest : 'v node option;
    mutable oldest : 'v node option;
    mutable evictions : int;
  }

  let create ?dead capacity =
    { table = H.create 32; capacity = max 1 capacity; dead; newest = None; oldest = None; evictions = 0 }

  let unlink t n =
    (match n.newer with Some m -> m.older <- n.older | None -> t.newest <- n.older);
    (match n.older with Some m -> m.newer <- n.newer | None -> t.oldest <- n.newer);
    n.newer <- None;
    n.older <- None

  let push_newest t n =
    n.older <- t.newest;
    (match t.newest with Some m -> m.newer <- Some n | None -> t.oldest <- Some n);
    t.newest <- Some n

  let find t k = H.find_opt t.table k

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

  (* [n] leaves the recency list and holds [dead]; the caller drops it
     from the table *)
  let retire t n =
    unlink t n;
    n.live <- false;
    match t.dead with Some d -> n.value <- d | None -> ()

  let remove t k =
    match H.find_opt t.table k with
    | Some n ->
        retire t n;
        H.remove t.table k
    | None -> ()

  (* one lookup and one replace of [k]; a victim costs one remove *)
  let add t k v =
    let n = { key = k; value = v; live = true; referenced = false; newer = None; older = None } in
    Option.iter (retire t) (H.find_opt t.table k);
    H.replace t.table k n;
    push_newest t n;
    (* at most one second chance per entry and insert, so marks set by
       racing readers cannot keep the scan going *)
    let chances = ref (H.length t.table) in
    while H.length t.table > t.capacity do
      match t.oldest with
      | Some victim when !chances > 0 && (victim.referenced || victim == n) ->
          (* second chance: a referenced entry becomes the newest instead;
             so does the new one, should all older entries have had theirs *)
          decr chances;
          victim.referenced <- false;
          unlink t victim;
          push_newest t victim
      | Some victim ->
          retire t victim;
          H.remove t.table victim.key;
          t.evictions <- t.evictions + 1
      | None -> assert false (* non-empty: length > capacity >= 1 *)
    done;
    n

  let evictions t = t.evictions

  let length t = H.length t.table

  let keys_where t p = H.fold (fun k n acc -> if p n.value then k :: acc else acc) t.table []
end
