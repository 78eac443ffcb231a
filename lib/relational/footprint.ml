(* Per-table column footprint of a plan and its patchable XMLAgg.  See
   footprint.mli. *)

open Algebra

type members = {
  agg : agg;
  table : string;
  fixed : string list;
  alone : bool;
  inner : (string * (string * string) list) list;
}

type t = { reads : (string * string list) list; members : members option }
type verdict = Irrelevant | Driving | Correlated of (string * string) list | Recompute

(* markup in content position: its events are balanced, never a bare
   attribute, so its bytes serialize the same in place or on their own *)
let rec markup = function
  | Xml_element _ | Xml_forest _ | Xml_text _ | Xml_comment _ | Xml_pi _ | Const _ -> true
  | Xml_concat es -> List.for_all markup es
  | Case (whens, els) ->
      List.for_all (fun (_, r) -> markup r) whens && Option.fold ~none:true ~some:markup els
  | _ -> false

let rec driving_scan = function
  | Filter (_, i) -> driving_scan i
  | Seq_scan { table; alias } | Index_scan { table; alias; _ } -> Some (table, alias)
  | _ -> None

(* the (column, driving column) pair of an equality of a column of the
   scan aliased [alias] with one of the driving alias [drv] *)
let key_pair ~alias ~drv = function
  | Binop (Eq, Col (Some a, c), Col (Some b, d)) when a = alias && b = drv -> Some (c, d)
  | Binop (Eq, Col (Some b, d), Col (Some a, c)) when a = alias && b = drv -> Some (c, d)
  | _ -> None

let of_plan p =
  let scans = ref [] and xml_aggs = ref [] in
  iter p ~expr:ignore ~plan:(function
    | Seq_scan { table; alias } | Index_scan { table; alias; _ } ->
        scans := (table, alias) :: !scans
    | Aggregate { group_by; aggs; input } ->
        List.iter
          (function
            | (Xml_agg (member, _) as agg), _ ->
                let single = group_by = [] && List.length aggs = 1 in
                xml_aggs := (agg, member, if single then driving_scan input else None) :: !xml_aggs
            | _ -> ())
          aggs
    | _ -> ());
  let tables = List.sort_uniq compare (List.map fst !scans) in
  (* per table, the columns referenced outside [skip]: a column counts
     against the tables its alias scans, or every table when it names
     none (or an unknown one); an index scan reads its index column *)
  let refs ?skip () =
    let cells = List.map (fun t -> (t, ref [])) tables in
    let add t c =
      let r = List.assoc t cells in
      if not (List.mem c !r) then r := c :: !r
    in
    let rec add_named a c found = function
      | [] -> found
      | (t, al) :: rest ->
          if al = a then add t c;
          add_named a c (found || al = a) rest
    in
    iter ?skip p
      ~plan:(function Index_scan { table; index_column; _ } -> add table index_column | _ -> ())
      ~expr:(function
        | Col (alias, c) ->
            let named = match alias with Some a -> add_named a c false !scans | None -> false in
            if not named then List.iter (fun t -> add t c) tables
        | _ -> ());
    List.map (fun (t, r) -> (t, !r)) cells
  in
  (* the tables the member alone scans, each scan keyed by equality on a
     column of the driving row: an index probe at one driving column, or
     a filter over the scan with such a conjunct.  A scan reached twice
     (a shared node) counts as unkeyed. *)
  let inner member drv =
    let outside = ref [] and keyed = ref [] and within = ref [] in
    iter ~skip:member p ~expr:ignore ~plan:(function
      | (Seq_scan _ | Index_scan _) as s -> outside := s :: !outside
      | _ -> ());
    iter p ~expr:ignore ~plan:(function
      | Index_scan { lo = Incl (Col (Some a, d)); hi = Incl (Col (Some b, d')); index_column; _ } as s
        when a = drv && b = drv && d = d' ->
          keyed := (s, (index_column, d)) :: !keyed
      | Filter (cond, ((Seq_scan { alias; _ } | Index_scan { alias; _ }) as s)) ->
          Option.iter
            (fun k -> keyed := (s, k) :: !keyed)
            (List.find_map (key_pair ~alias ~drv) (Cost.conjuncts cond))
      | _ -> ());
    iter p ~expr:ignore ~plan:(function
      | (Seq_scan { table; alias } | Index_scan { table; alias; _ }) as s
        when not (List.memq s !outside) ->
          let twice = List.exists (fun (s', _, _, _) -> s' == s) !within in
          within := (s, table, alias, twice) :: !within
      | _ -> ());
    let key (s, _, _, twice) = if twice then None else List.assq_opt s !keyed in
    let tables = List.sort_uniq compare (List.map (fun (_, t, _, _) -> t) !within) in
    let scanned_outside table =
      List.exists
        (function Seq_scan { table = t; _ } | Index_scan { table = t; _ } -> t = table | _ -> false)
        !outside
    in
    (* the driving alias must name the driving row everywhere inside *)
    if List.exists (fun (_, _, a, _) -> a = drv) !within then []
    else
      List.filter_map
        (fun table ->
          let keys = List.map key (List.filter (fun (_, t, _, _) -> t = table) !within) in
          if scanned_outside table || List.mem None keys then None
          else Some (table, List.sort_uniq compare (List.filter_map Fun.id keys)))
        tables
  in
  let members =
    match !xml_aggs with
    | [ (agg, member, Some (table, drv)) ] when markup member ->
        let alone = List.length (List.filter (fun (t, _) -> t = table) !scans) = 1 in
        let inner = List.filter (fun (t, _) -> t <> table) (inner member drv) in
        (* a write to a driving key column recomputes: a patch finds the
           members an inner write reaches by the keys they were recorded
           under *)
        let keys = List.concat_map (fun (_, keys) -> List.map snd keys) inner in
        let fixed = List.sort_uniq compare (keys @ List.assoc table (refs ~skip:member ())) in
        Some { agg; table; fixed; alone; inner }
    | _ -> None
  in
  { reads = refs (); members }

let classify fp ~table cols =
  let hit set = List.exists (fun c -> List.mem c set) cols in
  match List.assoc_opt table fp.reads with
  | None -> Irrelevant
  | Some read when not (hit read) -> Irrelevant
  | Some _ -> (
      match fp.members with
      | Some m when m.table = table -> if m.alone && not (hit m.fixed) then Driving else Recompute
      | Some m -> (
          match List.assoc_opt table m.inner with
          | Some keys when not (hit (List.map fst keys)) -> Correlated keys
          | _ -> Recompute)
      | None -> Recompute)

let describe fp tables =
  let driving = match fp.members with Some m -> m.table | None -> "" in
  let line table c =
    Printf.sprintf "  %s.%s: %s\n" table c
      (match classify fp ~table [ c ] with
      | Irrelevant -> "keep"
      | Driving -> "patch (driving)"
      | Correlated keys ->
          "patch (correlated as "
          ^ String.concat " AND "
              (List.map (fun (c, d) -> Printf.sprintf "%s.%s = %s.%s" table c driving d) keys)
          ^ ")"
      | Recompute -> "recompute")
  in
  String.concat "" (List.concat_map (fun (table, cols) -> List.map (line table) cols) tables)

(* computed at most a few times under a race, never twice once stored:
   every computation of one plan's footprint is the same (its [agg] is
   the plan's own node) *)
type memo = { plan : plan; cell : t option Atomic.t }

let memo plan = { plan; cell = Atomic.make None }

let get m =
  match Atomic.get m.cell with
  | Some fp -> fp
  | None ->
      let fp = of_plan m.plan in
      Atomic.set m.cell (Some fp);
      fp
