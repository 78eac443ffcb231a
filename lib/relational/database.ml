(** Table catalog, plus the column-statistics catalog filled by ANALYZE.

    [stats_version] is a monotonically increasing stamp bumped every time
    statistics change; the plan registry keys compiled plans on it so a
    re-ANALYZE invalidates stale plans (§7.3 spirit).

    [data_versions] is the DML mirror of that discipline: one monotonic
    counter per table, bumped whenever a statement changes the table's
    rows.  The result cache keys served transform output on the data
    versions of every table a plan reads, so a write invalidates exactly
    the cached results it can affect.  Beside each version sits a small
    change log: which rows and columns an UPDATE changed, so the cache
    can tell a write its entry never read.  DML also marks the table's
    statistics stale ([stats_stale]) without bumping [stats_version]:
    plans stay valid (they re-execute against current rows, costs are
    merely dated) until the next ANALYZE refreshes the stats. *)

type change = Updated of int array * string list | Unknown

let log_size = 16

type t = {
  tables : (string, Table.t) Hashtbl.t;
  col_stats : (string, Colstats.table_stats) Hashtbl.t;
  mutable stats_version : int;
  data_versions : (string, int) Hashtbl.t;  (** absent = 0 (never written) *)
  changes : (string, (int * change) array) Hashtbl.t;
      (** a ring of the changes that made the last [log_size] data
          versions: version [v]'s in slot [v mod log_size], stamped [v] *)
  stale_stats : (string, unit) Hashtbl.t;  (** tables written since their ANALYZE *)
}

exception Unknown_table of string

let create () =
  {
    tables = Hashtbl.create 8;
    col_stats = Hashtbl.create 8;
    stats_version = 0;
    data_versions = Hashtbl.create 8;
    changes = Hashtbl.create 8;
    stale_stats = Hashtbl.create 8;
  }

let data_version db name =
  match Hashtbl.find_opt db.data_versions name with Some v -> v | None -> 0

(* the next data version of [name], made by [change] *)
let log_change db name change =
  let v = data_version db name + 1 in
  Hashtbl.replace db.data_versions name v;
  let ring =
    match Hashtbl.find_opt db.changes name with
    | Some ring -> ring
    | None ->
        let ring = Array.make log_size (0, Unknown) in
        Hashtbl.replace db.changes name ring;
        ring
  in
  ring.(v mod log_size) <- (v, change)

let record_change db name change =
  log_change db name change;
  (* collected statistics no longer describe the rows; plans keep their
     cost-gated behavior until the next ANALYZE *)
  if Hashtbl.mem db.col_stats name then Hashtbl.replace db.stale_stats name ()

let bump_data_version db name = record_change db name Unknown

let log_update db name ~rids ~columns = record_change db name (Updated (rids, columns))

let changes_since db name v =
  let now = data_version db name in
  match Hashtbl.find_opt db.changes name with
  | _ when now = v -> Some []
  | Some ring when now - v <= log_size ->
      let rec go u acc =
        if u <= v then Some acc
        else
          match ring.(u mod log_size) with
          | u', Updated (rids, columns) when u' = u -> go (u - 1) ((rids, columns) :: acc)
          | _ -> None
      in
      go now []
  | _ -> None

let stats_stale db name = Hashtbl.mem db.stale_stats name

let create_table db name columns =
  let t = Table.create name columns in
  Hashtbl.replace db.tables name t;
  (* replacing a table invalidates any statistics collected for it *)
  if Hashtbl.mem db.col_stats name then begin
    Hashtbl.remove db.col_stats name;
    Hashtbl.remove db.stale_stats name;
    db.stats_version <- db.stats_version + 1
  end;
  (* a replaced table's rows changed wholesale: cached results over the
     old contents must not be served *)
  if Hashtbl.mem db.data_versions name then log_change db name Unknown;
  t

let table db name =
  match Hashtbl.find_opt db.tables name with
  | Some t -> t
  | None -> raise (Unknown_table name)

let table_opt db name = Hashtbl.find_opt db.tables name

let table_names db = Hashtbl.fold (fun k _ acc -> k :: acc) db.tables [] |> List.sort compare

let stats_version db = db.stats_version

let set_table_stats db name (ts : Colstats.table_stats) =
  db.stats_version <- db.stats_version + 1;
  Hashtbl.remove db.stale_stats name;
  Hashtbl.replace db.col_stats name { ts with Colstats.version = db.stats_version }

let table_stats db name = Hashtbl.find_opt db.col_stats name

let column_stats db name col =
  match table_stats db name with
  | None -> None
  | Some ts -> List.assoc_opt col ts.Colstats.columns

let clear_stats db =
  if Hashtbl.length db.col_stats > 0 then begin
    Hashtbl.reset db.col_stats;
    Hashtbl.reset db.stale_stats;
    db.stats_version <- db.stats_version + 1
  end
