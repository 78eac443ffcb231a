(** Compiled row layouts: column name → integer slot maps.

    The compiled executor represents rows as [Value.t array]; a layout is
    the static description of one operator's output rows.  Several names
    may share a slot — a scan binds each column both bare and
    [alias.column]-qualified, exactly like {!Exec.scan_bindings}'
    association-list rows — and name resolution follows entry order, so
    the first match wins just as [List.assoc] did.  Layouts are built once
    at plan-open time; unresolvable references become plan-time errors
    instead of per-row failures. *)

type t = {
  entries : (string * int) array;  (** resolution order = seed assoc order *)
  width : int;  (** physical slots per row *)
}

let empty = { entries = [||]; width = 0 }

let width t = t.width

let entries t = Array.to_list t.entries

(** [of_list ~width entries] — a layout from explicit (name, slot) pairs
    (e.g. projection output).  Slots must lie in [0, width). *)
let of_list ~width entries = { entries = Array.of_list entries; width }

(** [of_columns ~alias names] — the layout of a table scan: one slot per
    column, each bound under the bare name and the [alias.column] form
    (bare first, matching {!Exec.scan_bindings}' binding order). *)
let of_columns ~alias names =
  let n = Array.length names in
  let entries = Array.make (2 * n) ("", 0) in
  Array.iteri
    (fun i c ->
      entries.(2 * i) <- (c, i);
      entries.((2 * i) + 1) <- (alias ^ "." ^ c, i))
    names;
  { entries; width = n }

(** [concat a b] — rows of [a] with rows of [b] appended: [b]'s slots are
    shifted past [a]'s width, and [a]'s names shadow [b]'s.  This is how
    every operator sees its correlation bindings: own columns first, then
    the environment's.  The compiled executor never builds that row: its
    operators emit the own slots only and read the rest from the
    environment row they were opened on. *)
let concat a b =
  if b.width = 0 && Array.length b.entries = 0 then a
  else
    {
      entries =
        Array.append a.entries (Array.map (fun (n, s) -> (n, s + a.width)) b.entries);
      width = a.width + b.width;
    }

(** [prefix t w] — the layout of the first [w] slots only: entries whose
    slot lies below [w], resolution order preserved.  Inverse of {!concat}
    on the left operand — how the hash join recovers the build side's own
    columns from the build layout, which ends with the environment's. *)
let prefix t w =
  {
    entries = Array.of_seq (Seq.filter (fun (_, s) -> s < w) (Array.to_seq t.entries));
    width = w;
  }

(** [slot_opt t ?alias name] — resolve a column reference to its slot;
    qualified references resolve the ["alias.name"] entry. *)
let slot_opt t ?alias name =
  let key = match alias with Some a -> a ^ "." ^ name | None -> name in
  let n = Array.length t.entries in
  let rec go i =
    if i >= n then None
    else
      let nm, s = t.entries.(i) in
      if String.equal nm key then Some s else go (i + 1)
  in
  go 0

(** Distinct column names in resolution order — error-message material. *)
let names t =
  let seen = Hashtbl.create 16 in
  Array.to_list t.entries
  |> List.filter_map (fun (n, _) ->
         if Hashtbl.mem seen n then None
         else (
           Hashtbl.add seen n ();
           Some n))

let describe t = match names t with [] -> "<none>" | ns -> String.concat ", " ns

(** [to_assoc t row] — the association-list view of a physical row, in
    layout entry order (the row shape of {!Exec.run}). *)
let to_assoc t (row : Value.t array) : (string * Value.t) list =
  Array.fold_right (fun (n, s) acc -> (n, row.(s)) :: acc) t.entries []

(** [of_bindings names] — a layout for an externally supplied environment:
    one slot per binding, in order. *)
let of_bindings (ns : string list) =
  { entries = Array.of_list (List.mapi (fun i n -> (n, i)) ns); width = List.length ns }
