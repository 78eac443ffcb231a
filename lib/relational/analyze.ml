(** ANALYZE: scan (or systematically sample) a table, compute per-column
    {!Colstats} (min/max over every row, the rest over the sample) and
    store them in the {!Database} catalog with a version stamp.  XMLType
    columns are skipped — they never appear in sargable predicates. *)

let default_sample = 10_000

(** [table db name] collects statistics for one table and returns the
    number of rows sampled.
    @raise Database.Unknown_table when the table does not exist. *)
let table ?(sample = default_sample) db name =
  let tbl = Database.table db name in
  let n = Table.size tbl in
  let stride = if n <= sample then 1 else (n + sample - 1) / sample in
  let sampled = ref 0 in
  let cols =
    tbl.Table.columns |> Array.to_list
    |> List.filter (fun c -> c.Table.col_type <> Value.Txml)
    |> List.map (fun c -> (c.Table.col_name, Table.column_pos tbl c.Table.col_name))
  in
  let acc = List.map (fun (cname, pos) -> (cname, pos, ref [])) cols in
  (* a sample can miss a column's extremes, and a key past the sampled
     max_v would be costed as out of range: above the sample size,
     min/max come from every row (Null: no statable value yet) *)
  let pos = Array.of_list (List.map snd cols) in
  let lo = Array.make (Array.length pos) Value.Null in
  let hi = Array.copy lo in
  Table.iter
    (fun rid row ->
      if rid mod stride = 0 then begin
        incr sampled;
        List.iter (fun (_, pos, values) -> values := row.(pos) :: !values) acc
      end;
      if stride > 1 then
        for c = 0 to Array.length pos - 1 do
          let v = row.(pos.(c)) in
          if Colstats.is_statable v then
            match lo.(c) with
            | Value.Null ->
                lo.(c) <- v;
                hi.(c) <- v
            | l ->
                if Value.compare_key v l < 0 then lo.(c) <- v
                else if Value.compare_key v hi.(c) > 0 then hi.(c) <- v
        done)
    tbl;
  let extreme v = match v with Value.Null -> None | v -> Some v in
  let columns =
    List.mapi
      (fun c (cname, _, values) ->
        let cs = Colstats.compute !values in
        if stride = 1 then (cname, cs)
        else (cname, { cs with Colstats.min_v = extreme lo.(c); max_v = extreme hi.(c) }))
      acc
  in
  Database.set_table_stats db name { Colstats.row_count = n; version = 0; columns };
  !sampled

(** Analyze every table in the catalog; returns [(table, rows_sampled)]
    in table-name order. *)
let all ?sample db =
  List.map (fun name -> (name, table ?sample db name)) (Database.table_names db)
