(* Per-table column footprint of a plan and its patchable XMLAgg.  See
   footprint.mli. *)

open Algebra

type members = { agg : agg; table : string; fixed : string list }
type t = { reads : (string * string list) list; members : members option }
type verdict = Irrelevant | Members | Recompute

(* markup in content position: its events are balanced, never a bare
   attribute, so its bytes serialize the same in place or on their own *)
let rec markup = function
  | Xml_element _ | Xml_forest _ | Xml_text _ | Xml_comment _ | Xml_pi _ | Const _ -> true
  | Xml_concat es -> List.for_all markup es
  | Case (whens, els) ->
      List.for_all (fun (_, r) -> markup r) whens && Option.fold ~none:true ~some:markup els
  | _ -> false

let rec driving_table = function
  | Filter (_, i) -> driving_table i
  | Seq_scan { table; _ } | Index_scan { table; _ } -> Some table
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
                xml_aggs := (agg, member, if single then driving_table input else None) :: !xml_aggs
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
  let members =
    match !xml_aggs with
    | [ (agg, member, Some table) ]
      when markup member && List.length (List.filter (fun (t, _) -> t = table) !scans) = 1 ->
        Some { agg; table; fixed = List.assoc table (refs ~skip:member ()) }
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
      | Some m when m.table = table && not (hit m.fixed) -> Members
      | _ -> Recompute)

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
