(** Benchmark harness reproducing the paper's evaluation (§5).

    [dune exec bench/main.exe] runs every default target of {!targets};
    [dune exec bench/main.exe -- T ...] runs the named ones.  The paper's
    figures: [fig2] (Figure 2, dbonerow at 8k–64k rows standing in for
    the paper's 8M–64M documents; see DESIGN.md §2), [fig3] (Figure 3),
    [inline-stat] (the 23/40 statistic), [ablation] (§3.3–3.7),
    [storage] (§7.4) and [partial] (§7.2), all in BENCH_PR1.json, each
    row naming its figure.  The studies: [planquality], [joinscale],
    [pubstream], [parscale], [shredscale], [servebench] and [rwbench],
    each with its own BENCH_PR*.json.  [fig2-smoke], [joinscale-smoke]
    and [rwbench-smoke] are smaller runs, only run when named.

    Every target asserts its outputs byte-identical across the paths it
    compares before it times them, and reports rows through one emitter:
    a stdout table, a CSV under bench/results and its JSON file
    [{"bench", "host", "legs", "summary"}].  After each target the
    {!gates} on its file print one PASS, FAIL or SKIP line each; the run
    exits 1 at the end if any failed.

    Absolute numbers differ from the paper (Oracle testbed vs this
    simulator); the reproduced property is the *shape*: who wins, by what
    factor, and how each side scales. *)

module M = Xdb_xsltmark.Cases
module D = Xdb_xsltmark.Data
module PL = Xdb_core.Pipeline

(* ------------------------------------------------------------------ *)
(* Rows, reports and the one emitter                                   *)
(* ------------------------------------------------------------------ *)

(* a field of a result row; a float carries the decimals it prints with *)
type value = I of int | F of int * float | B of bool | S of string | Null

type row = (string * value) list

(* what one target measured: [legs] its measurements, [summary] what it
   derives from them; [bench] names its JSON file and [csv] its file
   under bench/results *)
type report = { bench : string; csv : string; title : string; legs : row list; summary : row list }

let report ?(summary = []) bench csv title legs = { bench; csv; title; legs; summary }
let f0 x = F (0, x)
let f2 x = F (2, x)
let f3 x = F (3, x)
let f4 x = F (4, x)

(* on the library's monotonic nanosecond clock *)
let time_once f =
  let t0 = Xdb_rel.Clock.now_ns () in
  let r = f () in
  (r, Xdb_rel.Clock.ms_since t0)

(* wall clock over [repeat] runs, milliseconds: the median and the
   extremes *)
type timing = { med : float; lo : float; hi : float }

let timing samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  { med = a.(n / 2); lo = a.(0); hi = a.(n - 1) }

let time_ms ?(repeat = 3) f = timing (List.init repeat (fun _ -> snd (time_once f)))

(* a timing as three fields: [key] holds the median *)
let timed key t = [ (key, f4 t.med); (key ^ "_min", f4 t.lo); (key ^ "_max", f4 t.hi) ]

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when c < ' ' -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* a non-finite float (a speedup over a time below the clock's
   resolution) is no JSON number: it is written as null *)
let to_json = function
  | I i -> string_of_int i
  | F (d, x) when Float.is_finite x -> Printf.sprintf "%.*f" d x
  | F _ | Null -> "null"
  | B b -> string_of_bool b
  | S s -> json_string s

let to_text ~null = function
  | I i -> string_of_int i
  | F (d, x) -> Printf.sprintf "%.*f" d x
  | B b -> string_of_bool b
  | S s -> s
  | Null -> null

let json_object row =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ to_json v) row) ^ "}"

(* every field name of [rows], in first-seen order *)
let columns rows =
  List.fold_left
    (fun acc row ->
      List.fold_left (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ]) acc row)
    [] rows

let cell ~null row k = match List.assoc_opt k row with Some v -> to_text ~null v | None -> null

(* consecutive rows with the same fields print under one header *)
let rec print_table = function
  | [] -> ()
  | first :: _ as rows ->
      let cols = List.map fst first in
      let rec split acc = function
        | r :: tl when List.map fst r = cols -> split (r :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let group, rest = split [] rows in
      let cells = cols :: List.map (fun row -> List.map (cell ~null:"-" row) cols) group in
      let width i =
        List.fold_left (fun w line -> max w (String.length (List.nth line i))) 0 cells
      in
      let widths = List.mapi (fun i _ -> width i) cols in
      List.iter
        (fun line ->
          print_endline (String.concat "  " (List.map2 (Printf.sprintf "%*s") widths line)))
        cells;
      print_table rest

let write_file path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* rows already written to each JSON file in this run: the paper figures
   share BENCH_PR1.json *)
let written : (string, row list * row list) Hashtbl.t = Hashtbl.create 8

let emit r =
  let hrule = String.make 72 '-' in
  Printf.printf "%s\n%s\n%s\n" hrule r.title hrule;
  print_table r.legs;
  if r.summary <> [] then (print_newline (); print_table r.summary);
  (try Unix.mkdir "bench/results" 0o755 with Unix.Unix_error _ -> ());
  let csv = Filename.concat "bench/results" (r.csv ^ ".csv") in
  let csv_cell row k =
    let s = cell ~null:"" row k in
    if String.contains s ',' || String.contains s '"' then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let cols = columns r.legs in
  write_file csv
    (String.concat "," cols
    :: List.map (fun row -> String.concat "," (List.map (csv_cell row) cols)) r.legs);
  let legs0, summary0 = Option.value (Hashtbl.find_opt written r.bench) ~default:([], []) in
  let legs = legs0 @ r.legs and summary = summary0 @ r.summary in
  Hashtbl.replace written r.bench (legs, summary);
  let array rows =
    if rows = [] then "[]" else "[\n  " ^ String.concat ",\n  " (List.map json_object rows) ^ "\n]"
  in
  (* the timestamp is passed in by the harness (XDB_BENCH_TS):
     benchmarks stay deterministic *)
  let host =
    [ ("nproc", I (Xdb_core.Parallel.default_jobs ())); ("ocaml", S Sys.ocaml_version);
      ("timestamp", S (Option.value (Sys.getenv_opt "XDB_BENCH_TS") ~default:"")) ]
  in
  let json = r.bench ^ ".json" in
  write_file json
    [ Printf.sprintf {|{"bench":%s,"host":%s,"legs":%s,"summary":%s}|} (json_string r.bench)
        (json_object host) (array legs) (array summary) ];
  Printf.printf "(written %s, %s)\n" json csv

(* ------------------------------------------------------------------ *)
(* Figures 2 and 3                                                     *)
(* ------------------------------------------------------------------ *)

(* one leg: compile with metrics, verify functional ≡ rewrite, time both,
   and record the pipeline's stage timings and counters and the
   instrumented operators' totals *)
let figure_leg ~figure ~rows case dv =
  let metrics = Xdb_core.Metrics.create () in
  let comp = PL.compile ~metrics dv.D.db dv.D.view case.M.stylesheet in
  assert (comp.PL.sql_plan <> None);
  let f0 = PL.run_functional dv.D.db comp in
  let r0, stats = PL.run_rewrite_analyzed ~metrics dv.D.db comp in
  assert (f0 = r0);
  let rewrite = time_ms (fun () -> PL.run_rewrite dv.D.db comp) in
  let norewrite = time_ms (fun () -> PL.run_functional dv.D.db comp) in
  let ops = match stats with Some s -> Xdb_rel.Stats.entries s | None -> [] in
  let total f = I (List.fold_left (fun n (e : Xdb_rel.Stats.entry) -> n + f e.op) 0 ops) in
  [ ("figure", S figure); ("case", S case.M.name); ("rows", I rows) ]
  @ timed "rewrite_ms" rewrite @ timed "norewrite_ms" norewrite
  @ [ ("speedup", f2 (norewrite.med /. rewrite.med)); ("operators", I (List.length ops));
      ("btree_probes", total (fun o -> o.Xdb_rel.Stats.btree_probes));
      ("heap_rows", total (fun o -> o.Xdb_rel.Stats.heap_rows)) ]
  @ List.map (fun (stage, ms) -> (stage ^ "_ms", f4 ms)) (Xdb_core.Metrics.stages metrics)
  @ List.map (fun (c, n) -> (c, I n)) (Xdb_core.Metrics.counters metrics)

let fig2 ?(figure = "fig2") ?(sizes = [ 8_000; 16_000; 32_000; 64_000 ]) () =
  report "BENCH_PR1" figure "Figure 2 — dbonerow: XSLT rewrite vs no-rewrite (value predicate)"
    (List.map
       (fun n ->
         let case = M.dbonerow_for n in
         figure_leg ~figure ~rows:n case (M.dbview_for case n))
       sizes)

let fig3 ?(n = 8_000) () =
  report "BENCH_PR1" "fig3"
    (Printf.sprintf "Figure 3 — no-value-predicate cases: rewrite vs no-rewrite (%d rows)" n)
    (List.map
       (fun name ->
         let case = Option.get (M.find name) in
         figure_leg ~figure:"fig3" ~rows:n case (M.dbview_for case n))
       [ "avts"; "chart"; "metric"; "total" ])

(* ------------------------------------------------------------------ *)
(* Inline statistic                                                    *)
(* ------------------------------------------------------------------ *)

let inline_stat () =
  let module G = Xdb_core.Xslt2xquery in
  let legs =
    List.map
      (fun (c : M.case) ->
        let dc = PL.compile_for_document c.M.stylesheet ~example_doc:(M.doc_for c 100) in
        let mode = dc.PL.d_translation.G.mode in
        let inline =
          match mode with
          | G.Mode_inline | G.Mode_builtin_compact -> true
          | G.Mode_partial_inline | G.Mode_functions -> false
        in
        [ ("figure", S "inline-stat"); ("case", S c.M.name); ("mode", S (PL.mode_name mode));
          ("category", S c.M.category); ("inline", B inline) ])
      M.all
  in
  let inline = List.length (List.filter (List.mem ("inline", B true)) legs) in
  report "BENCH_PR1" "inline-stat"
    "Inline statistic — full-inline XSLT→XQuery compilations (paper: 23/40)" legs
    ~summary:
      [ [ ("figure", S "inline-stat"); ("inline", I inline); ("cases", I (List.length legs));
          ("paper_inline", I 23); ("paper_cases", I 40) ] ]

(* ------------------------------------------------------------------ *)
(* Ablation (§3.3–3.7 options)                                         *)
(* ------------------------------------------------------------------ *)

let ablation ?(n = 2_000) () =
  let module O = Xdb_core.Options in
  let base = O.default in
  let variants =
    [
      ("all-on (paper)", base);
      ("no-inlining (3.3)", { base with O.inline_templates = false });
      ("no-model-groups (3.4)", { base with O.use_model_groups = false });
      ("no-cardinality (3.4)", { base with O.use_cardinality = false });
      ("no-backward-removal (3.5)", { base with O.remove_backward_tests = false });
      ("no-dead-removal (3.7)", { base with O.remove_dead_templates = false });
      ("straightforward [9]", O.straightforward);
    ]
  in
  let cases = List.filter_map M.find [ "dbonerow"; "patterns"; "decoy"; "inventory"; "metric" ] in
  let legs =
    List.map
      (fun (label, options) ->
        let sizes = ref 0 and eval = ref { med = 0.0; lo = 0.0; hi = 0.0 } and sqlable = ref 0 in
        List.iter
          (fun (c : M.case) ->
            let c = if c.M.name = "dbonerow" then M.dbonerow_for n else c in
            let doc = M.doc_for c n in
            let dc = PL.compile_for_document ~options c.M.stylesheet ~example_doc:doc in
            let q = dc.PL.d_translation.Xdb_core.Xslt2xquery.query in
            sizes := !sizes + Xdb_xquery.Ast.size q.Xdb_xquery.Ast.body;
            (* the leg's time is the sum over its cases, extremes too *)
            let t = time_ms (fun () -> PL.transform_via_xquery dc doc) in
            eval := { med = !eval.med +. t.med; lo = !eval.lo +. t.lo; hi = !eval.hi +. t.hi };
            if c.M.db_capable then
              let dv = M.dbview_for c n in
              match Xdb_xquery.Sql_rewrite.rewrite_view_plan dv.D.db dv.D.view q with
              | _ -> incr sqlable
              | exception Xdb_xquery.Sql_rewrite.Not_rewritable _ -> ())
          cases;
        [ ("figure", S "ablation"); ("configuration", S label);
          ("qsize_avg", I (!sizes / List.length cases)) ]
        @ timed "eval_ms" !eval
        @ [ ("sql_capable", I !sqlable); ("cases", I (List.length cases)) ])
      variants
  in
  report "BENCH_PR1" "ablation"
    (Printf.sprintf "Ablation — §3.3–3.7 techniques toggled off individually (%d rows)" n)
    legs

(* ------------------------------------------------------------------ *)
(* Storage-model study (paper §7.4)                                    *)
(* ------------------------------------------------------------------ *)

let storage ?(n = 8_000) () =
  let case = M.dbonerow_for n in
  let dv = M.dbview_for case n in
  let comp = PL.compile dv.D.db dv.D.view case.M.stylesheet in
  (* object-relational: publish from tables, then transform *)
  let or_ms = time_ms (fun () -> PL.run_functional dv.D.db comp) in
  (* CLOB: serialized text parsed on access, then transform *)
  let docs = Xdb_rel.Publish.materialize dv.D.db dv.D.view in
  ignore (Xdb_rel.Clob.store dv.D.db ~table:"clob_docs" docs);
  let clob_ms =
    time_ms (fun () ->
        List.iter
          (fun doc -> ignore (Xdb_xslt.Vm.transform comp.PL.vm_prog doc))
          (Xdb_rel.Clob.load dv.D.db ~table:"clob_docs"))
  in
  (* tree storage: the DOM is already resident; transformation only *)
  let tree_ms =
    time_ms (fun () ->
        List.iter (fun doc -> ignore (Xdb_xslt.Vm.transform comp.PL.vm_prog doc)) docs)
  in
  (* rewrite (object-relational only: structural info required) *)
  let rewrite_ms = time_ms (fun () -> PL.run_rewrite dv.D.db comp) in
  (* multi-document scenario: one document per record, select-and-transform
     the single matching document (paper's "CLOB with path/value index") *)
  let n_docs = 2_000 in
  let docs =
    List.init n_docs (fun i ->
        let d = D.records_doc 1 in
        (* make ids unique across documents *)
        (match Xdb_xml.Parser.document_element d with
        | { Xdb_xml.Types.children = [ row ]; _ } -> (
            match row.Xdb_xml.Types.children with
            | idel :: _ -> Xdb_xml.Types.set_children idel [ Xdb_xml.Builder.text (string_of_int (i + 1)) ]
            | [] -> ())
        | _ -> ());
        Xdb_xml.Types.reindex d;
        (i + 1, d))
  in
  let wanted = string_of_int (n_docs / 2) in
  let clob_db = Xdb_rel.Database.create () in
  let _tbl = Xdb_rel.Clob.store clob_db ~table:"docs" (List.map snd docs) in
  let t_scan =
    time_ms (fun () ->
        (* no index: parse every stored document and test the predicate *)
        List.iter
          (fun doc ->
            let root = Xdb_xml.Parser.document_element doc in
            ignore (Xdb_xml.Types.string_value root = wanted))
          (Xdb_rel.Clob.load clob_db ~table:"docs"))
  in
  let pidx = Xdb_rel.Pathindex.build docs in
  let t_indexed =
    time_ms (fun () ->
        match Xdb_rel.Pathindex.lookup pidx ~path:"/table/row/id" ~value:wanted with
        | docid :: _ -> ignore (Xdb_rel.Clob.load_one clob_db ~table:"docs" ~docid)
        | [] -> ())
  in
  let leg scenario model t =
    [ ("figure", S "storage"); ("scenario", S scenario); ("model", S model) ] @ timed "ms" t
  in
  let single = Printf.sprintf "dbonerow, %d rows" n
  and many = Printf.sprintf "%d single-record docs" n_docs in
  report "BENCH_PR1" "storage" "Storage models (paper §7.4)"
    [
      leg single "object-relational, no rewrite" or_ms;
      leg single "CLOB (parse on access)" clob_ms;
      leg single "tree (resident DOM)" tree_ms;
      leg single "rewrite (B-tree probe)" rewrite_ms;
      leg many "CLOB scan (parse all, test)" t_scan;
      leg many "CLOB + path/value index" t_indexed;
    ]

(* ------------------------------------------------------------------ *)
(* Partial-inline extension (§7.2)                                     *)
(* ------------------------------------------------------------------ *)

let partial_inline ?(n = 400) () =
  let funs dc =
    I (List.length dc.PL.d_translation.Xdb_core.Xslt2xquery.query.Xdb_xquery.Ast.funs)
  in
  let legs =
    List.filter_map
      (fun (c : M.case) ->
        if c.M.expect_inline then None
        else begin
          let doc = M.doc_for c n in
          let compile options = PL.compile_for_document ~options c.M.stylesheet ~example_doc:doc in
          let ni = compile Xdb_core.Options.default in
          let pi = compile Xdb_core.Options.with_partial_inline in
          (* correctness first *)
          assert (PL.transform_via_xquery ni doc = PL.transform_via_xquery pi doc);
          let t_ni = time_ms (fun () -> ignore (PL.transform_via_xquery ni doc)) in
          let t_pi = time_ms (fun () -> ignore (PL.transform_via_xquery pi doc)) in
          Some
            ([ ("figure", S "partial"); ("case", S c.M.name) ]
            @ timed "noninline_ms" t_ni @ timed "partial_ms" t_pi
            @ [ ("funs_noninline", funs ni); ("funs_partial", funs pi) ])
        end)
      M.all
  in
  report "BENCH_PR1" "partial"
    (Printf.sprintf "Partial inline (§7.2 extension) — recursive cases at size %d" n)
    legs

(* ------------------------------------------------------------------ *)
(* Plan quality: per-operator q-error with vs without ANALYZE           *)
(* ------------------------------------------------------------------ *)

(* q-error = max(est/actual, actual/est), both clamped to >= 1 row *)
let qerror est actual =
  let est = Float.max 1.0 est and actual = Float.max 1.0 actual in
  Float.max (est /. actual) (actual /. est)

let median = function
  | [] -> 0.0
  | xs ->
      let a = List.sort compare xs in
      let k = List.length a in
      if k mod 2 = 1 then List.nth a (k / 2)
      else (List.nth a ((k / 2) - 1) +. List.nth a (k / 2)) /. 2.0

(* per case: compile pre-ANALYZE, collect stats, recompile (cost-based),
   run instrumented, and compare per-operator estimates — System-R
   defaults vs statistics — against the actual row counts *)
let planquality ?(n = 2_000) () =
  let module ST = Xdb_rel.Stats in
  let per_case =
    List.map
      (fun name ->
        let case = Option.get (M.find name) in
        let case = if name = "dbonerow" then M.dbonerow_for n else case in
        let dv = M.dbview_for case n in
        let db = dv.D.db in
        (* pre-ANALYZE plan: rule-based, default selectivities *)
        let plan_default = Option.get (PL.compile db dv.D.view case.M.stylesheet).PL.sql_plan in
        (* collect statistics and recompile: cost-based plan *)
        ignore (Xdb_rel.Analyze.all db);
        let comp_stats = PL.compile db dv.D.view case.M.stylesheet in
        let plan_changed =
          Xdb_rel.Algebra.plan_sql (Option.get comp_stats.PL.sql_plan)
          <> Xdb_rel.Algebra.plan_sql plan_default
        in
        let _rows, stats_opt = PL.run_rewrite_analyzed db comp_stats in
        let ops =
          List.filter_map
            (fun (e : ST.entry) ->
              if e.op.ST.loops = 0 then None
              else
                let actual = float_of_int e.op.ST.rows /. float_of_int e.op.ST.loops in
                Some
                  ( e.label,
                    Xdb_rel.Cost.estimate_rows_default db e.node,
                    Xdb_rel.Cost.estimate_rows db e.node,
                    actual ))
            (ST.entries (Option.get stats_opt))
        in
        let qd = List.map (fun (_, ed, _, a) -> qerror ed a) ops in
        let qs = List.map (fun (_, _, es, a) -> qerror es a) ops in
        let legs =
          List.map
            (fun (label, ed, es, a) ->
              [ ("case", S name); ("op", S label); ("est_default", f2 ed); ("est_stats", f2 es);
                ("actual", f2 a); ("qerr_default", f3 (qerror ed a));
                ("qerr_stats", f3 (qerror es a)) ])
            ops
        in
        let summary =
          [ ("case", S name); ("rows", I n); ("operators", I (List.length ops));
            ("median_qerr_default", f3 (median qd)); ("median_qerr_stats", f3 (median qs));
            ("wins", I (List.length (List.filter Fun.id (List.map2 ( > ) qd qs))));
            ("plan_changed", B plan_changed) ]
        in
        (legs, summary, qd, qs))
      [ "dbonerow"; "avts"; "chart"; "metric"; "total" ]
  in
  let all f = List.concat_map f per_case in
  report "BENCH_PR2" "planquality"
    (Printf.sprintf
       "Plan quality — per-operator q-error, System-R defaults vs ANALYZE stats (%d rows)" n)
    (all (fun (legs, _, _, _) -> legs))
    ~summary:
      (List.map (fun (_, s, _, _) -> s) per_case
      @ [ [ ("case", S "OVERALL"); ("rows", I n);
            ("median_qerror", f3 (median (all (fun (_, _, _, qs) -> qs))));
            ("median_qerror_default", f3 (median (all (fun (_, _, qd, _) -> qd)))) ] ])

(* ------------------------------------------------------------------ *)
(* joinscale: hash join vs (index) nested loop                         *)
(* ------------------------------------------------------------------ *)

(* Join-heavy publishing shape: a fact table of orders against two
   dimension tables — one with an index on its key (the index-NL-friendly
   join) and one without (where a nested loop has to rescan the dimension
   per probe row).  Each join runs as a hash join and as the nested-loop
   alternatives over the *same* outer side; results are compared across
   physical operators before anything is timed.  The planner's own
   post-ANALYZE choice for each join region is recorded alongside. *)
let joinscale ?(sizes = [ 100_000; 1_000_000 ]) () =
  let module R = Xdb_rel in
  let module A = R.Algebra in
  let module V = R.Value in
  let n_cust = 1_000 and n_tag = 200 in
  let build n =
    let db = R.Database.create () in
    let table name cols =
      R.Database.create_table db name
        (List.map (fun (col_name, col_type) -> { R.Table.col_name; col_type }) cols)
    in
    let orders =
      table "orders" [ ("oid", V.Tint); ("cust", V.Tint); ("tag", V.Tint); ("amt", V.Tint) ]
    in
    let dim_cust = table "dim_cust" [ ("cid", V.Tint); ("cname", V.Tstr) ] in
    let dim_tag = table "dim_tag" [ ("tid", V.Tint); ("tname", V.Tstr) ] in
    let seed = ref 7 in
    let rand m =
      seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
      !seed mod m
    in
    for i = 0 to n - 1 do
      R.Table.insert_values orders
        [ V.Int i; V.Int (rand n_cust); V.Int (rand n_tag); V.Int (rand 10_000) ]
    done;
    for c = 0 to n_cust - 1 do
      R.Table.insert_values dim_cust [ V.Int c; V.Str (Printf.sprintf "cust-%04d" c) ]
    done;
    for t = 0 to n_tag - 1 do
      R.Table.insert_values dim_tag [ V.Int t; V.Str (Printf.sprintf "tag-%03d" t) ]
    done;
    ignore (R.Table.create_index dim_cust ~name:"dim_cust_cid" ~column:"cid");
    db
  in
  let outer = A.Seq_scan { table = "orders"; alias = "o" } in
  let hash_plan ~dim ~dalias ~okey ~dkey =
    A.Hash_join
      {
        outer;
        inner = A.Seq_scan { table = dim; alias = dalias };
        keys = [ (A.qcol "o" okey, A.qcol dalias dkey) ];
        kind = A.Inner;
      }
  in
  let nl_plan ~dim ~dalias ~okey ~dkey =
    A.Nested_loop
      {
        outer;
        inner = A.Seq_scan { table = dim; alias = dalias };
        join_cond = Some A.(qcol "o" okey =. qcol dalias dkey);
      }
  in
  let indexnl_plan ~dim ~dalias ~okey ~dkey ~index =
    let key = A.qcol "o" okey in
    A.Nested_loop
      {
        outer;
        inner =
          A.Index_scan
            { table = dim; alias = dalias; index_column = index; lo = A.Incl key; hi = A.Incl key };
        join_cond = Some A.(key =. qcol dalias dkey);
      }
  in
  (* (oid, dimension name) rows in output order: equality across the
     physical operators is the byte-identity check *)
  let norm db name_col plan =
    let layout, rows = R.Exec.run_arrays db plan in
    let so = Option.get (R.Layout.slot_opt layout "oid") in
    let sn = Option.get (R.Layout.slot_opt layout name_col) in
    List.map (fun (r : V.t array) -> (V.to_int r.(so), V.to_string r.(sn))) rows
  in
  let legs =
    List.concat_map
      (fun n ->
        let db = build n in
        (* planner choice for the same join region, post-ANALYZE *)
        let planner dim dalias okey dkey =
          let region =
            A.Filter
              ( A.(qcol "o" okey =. qcol dalias dkey),
                A.Nested_loop
                  { outer; inner = A.Seq_scan { table = dim; alias = dalias }; join_cond = None } )
          in
          match R.Optimizer.optimize db region with
          | A.Hash_join _ -> "hash"
          | A.Nested_loop { inner = A.Index_scan _; _ } -> "index-nl"
          | A.Nested_loop _ -> "nested-loop"
          | A.Filter _ -> "filter(unjoined)"
          | _ -> "other"
        in
        ignore (R.Analyze.all db);
        let time ?repeat plan = time_ms ?repeat (fun () -> ignore (R.Exec.run_arrays db plan)) in
        let leg ~dim ~hash ~nl ~indexnl ~identical ~planner =
          let ms key = function
            | Some t -> timed key t
            | None -> [ (key, Null); (key ^ "_min", Null); (key ^ "_max", Null) ]
          in
          [ ("rows", I n); ("dim", S dim) ]
          @ timed "hash_ms" hash @ ms "nl_ms" nl @ ms "indexnl_ms" indexnl
          @ [ ("speedup_hash_vs_nl", match nl with Some t -> f2 (t.med /. hash.med) | None -> Null);
              ("identical", match identical with Some b -> B b | None -> Null);
              ("planner", S planner) ]
        in
        (* non-indexable dimension: hash vs forced nested loop, which
           rescans the 200-row dimension n times: run once, and only at
           the smaller sizes; the larger legs compare nothing *)
        let tag_hash = hash_plan ~dim:"dim_tag" ~dalias:"t" ~okey:"tag" ~dkey:"tid" in
        let tag_nl = nl_plan ~dim:"dim_tag" ~dalias:"t" ~okey:"tag" ~dkey:"tid" in
        let run_nl = n <= 100_000 in
        let if_nl f = if run_nl then Some (f ()) else None in
        let tag =
          leg ~dim:"tag" ~hash:(time tag_hash)
            ~nl:(if_nl (fun () -> time ~repeat:1 tag_nl))
            ~indexnl:None
            ~identical:(if_nl (fun () -> norm db "tname" tag_nl = norm db "tname" tag_hash))
            ~planner:(planner "dim_tag" "t" "tag" "tid")
        in
        (* indexed dimension: hash vs index nested loop *)
        let cust_hash = hash_plan ~dim:"dim_cust" ~dalias:"c" ~okey:"cust" ~dkey:"cid" in
        let cust_inl =
          indexnl_plan ~dim:"dim_cust" ~dalias:"c" ~okey:"cust" ~dkey:"cid" ~index:"cid"
        in
        let cust =
          leg ~dim:"cust" ~hash:(time cust_hash) ~nl:None ~indexnl:(Some (time cust_inl))
            ~identical:(Some (norm db "cname" cust_hash = norm db "cname" cust_inl))
            ~planner:(planner "dim_cust" "c" "cust" "cid")
        in
        [ tag; cust ])
      sizes
  in
  report "BENCH_PR9" "joinscale" "joinscale: hash join vs (index) nested loop" legs

(* ------------------------------------------------------------------ *)
(* pubstream: DOM vs streaming result construction                     *)
(* ------------------------------------------------------------------ *)

let alloc_bytes f =
  let a0 = Gc.allocated_bytes () in
  ignore (f ());
  Gc.allocated_bytes () -. a0

(* Every db-capable bench case's view, published by building each
   document's DOM then serializing it vs streaming spec events straight
   into the serializer.  Outputs are asserted byte-identical first; then
   wall time and allocation (Gc.allocated_bytes delta over one run) per
   leg, and per-size totals: streaming must not be slower and must
   allocate strictly less at the large size. *)
let pubstream ?(sizes = [ 8_000; 64_000 ]) () =
  let per_size =
    List.map
      (fun n ->
        let legs =
          List.map
            (fun name ->
              let case = Option.get (M.find name) in
              let case = if name = "dbonerow" then M.dbonerow_for n else case in
              let dv = M.dbview_for case n in
              let db = dv.D.db and view = dv.D.view in
              let dom () =
                List.map
                  (fun d -> Xdb_xml.Serializer.node_list_to_string d.Xdb_xml.Types.children)
                  (Xdb_rel.Publish.materialize db view)
              in
              let stream () = Xdb_rel.Publish.materialize_serialized db view in
              assert (dom () = stream ());
              let dom_ms = time_ms dom and stream_ms = time_ms stream in
              let dom_alloc = alloc_bytes dom and stream_alloc = alloc_bytes stream in
              ( [ ("rows", I n); ("case", S name); ("leg", S "publish") ]
                @ timed "dom_ms" dom_ms @ timed "stream_ms" stream_ms
                @ [ ("dom_alloc_bytes", f0 dom_alloc); ("stream_alloc_bytes", f0 stream_alloc) ],
                (dom_ms.med, stream_ms.med, dom_alloc, stream_alloc) ))
            [ "dbonerow"; "avts"; "chart"; "metric"; "total" ]
        in
        let sum f = List.fold_left (fun acc (_, m) -> acc +. f m) 0.0 legs in
        ( List.map fst legs,
          [ ("rows", I n); ("dom_ms", f4 (sum (fun (d, _, _, _) -> d)));
            ("stream_ms", f4 (sum (fun (_, s, _, _) -> s)));
            ("dom_alloc_bytes", f0 (sum (fun (_, _, d, _) -> d)));
            ("stream_alloc_bytes", f0 (sum (fun (_, _, _, s) -> s))) ] ))
      sizes
  in
  report "BENCH_PR4" "pubstream" "pubstream: DOM vs streamed output events (publish)"
    (List.concat_map fst per_size) ~summary:(List.map snd per_size)

(* ------------------------------------------------------------------ *)
(* parscale: domain-parallel transform execution                       *)
(* ------------------------------------------------------------------ *)

(* Every db-capable case, sharded into ~100-row documents (the paper's
   many-documents-in-an-XMLType-column scenario), run through the SQL/XML
   rewrite path with 1, 2 and 4 domains.  Byte-identity against the
   sequential run is asserted on every leg — correctness holds at any
   core count — then each leg is timed in six rounds.  Round [r] runs
   the legs starting [r] legs further on, so no leg is always the one
   that runs first, and each timed run follows a full major collection
   (outside the timer) on a freshly spawned pool.  Reported: wall time
   per leg and per-size totals of the medians. *)
let parscale ?(sizes = [ 8_000; 64_000 ]) ?(jobs_list = [ 1; 2; 4 ]) () =
  let rounds = 6 and legs_n = List.length jobs_list in
  let per_size =
    List.map
      (fun n ->
        let docs = max 4 (n / 100) in
        let legs =
          List.concat_map
            (fun name ->
              let case = Option.get (M.find name) in
              let case = if name = "dbonerow" then M.dbonerow_for n else case in
              let dv = M.dbview_for ~docs case n in
              let comp = PL.compile dv.D.db dv.D.view case.M.stylesheet in
              assert (comp.PL.sql_plan <> None);
              let run pool = PL.run_rewrite ~pool dv.D.db comp in
              let seq = PL.run_rewrite dv.D.db comp in
              let identical =
                List.map (fun jobs -> Xdb_core.Parallel.with_pool ~jobs run = seq) jobs_list
              in
              assert (List.for_all Fun.id identical);
              let samples = Array.make legs_n [] in
              for r = 0 to rounds - 1 do
                for i = 0 to legs_n - 1 do
                  let leg = (r + i) mod legs_n in
                  Xdb_core.Parallel.with_pool ~jobs:(List.nth jobs_list leg) (fun pool ->
                      Gc.full_major ();
                      samples.(leg) <- snd (time_once (fun () -> run pool)) :: samples.(leg))
                done
              done;
              let times = Array.map timing samples in
              List.mapi
                (fun leg (jobs, identical) ->
                  let t = times.(leg) in
                  ( (jobs, t.med),
                    [ ("rows", I n); ("case", S name); ("docs", I docs); ("jobs", I jobs) ]
                    @ timed "ms" t
                    @ [ ("speedup", f3 (times.(0).med /. t.med)); ("identical", B identical) ] ))
                (List.combine jobs_list identical))
            [ "dbonerow"; "avts"; "chart"; "metric"; "total" ]
        in
        let total j =
          List.fold_left (fun acc ((j', ms), _) -> if j' = j then acc +. ms else acc) 0.0 legs
        in
        let base_total = total (List.hd jobs_list) in
        ( List.map snd legs,
          List.map
            (fun j ->
              [ ("rows", I n); ("docs", I docs); ("jobs", I j); ("total_ms", f4 (total j));
                ("speedup", f3 (base_total /. total j)) ])
            jobs_list ))
      sizes
  in
  report "BENCH_PR5" "parscale"
    (Printf.sprintf "parscale: domain-parallel rewrite execution (recommended domains: %d)"
       (Xdb_core.Parallel.default_jobs ()))
    (List.concat_map fst per_size) ~summary:(List.concat_map snd per_size)

(* ------------------------------------------------------------------ *)
(* shredscale: DOM walk vs shredded staircase sweeps                   *)
(* ------------------------------------------------------------------ *)

(* The records document shredded into interval-encoded node rows
   (Xdb_rel.Shred), then XPath lookups answered two ways: the DOM
   interpreter walking the resident tree vs staircase sweeps over the
   pre-ordered row columns and its name postings.  Byte-identity
   (through the common attribute rendering of Shred.serialize /
   serialize_dom) is asserted on every leg before timing.  The same legs
   make two reports: BENCH_PR6 (shredded vs DOM, with totals) and
   BENCH_PR8 (the set-at-a-time evaluator's speedup per query shape). *)
let shredscale ?(sizes = [ 800; 6_400 ]) () =
  let module SH = Xdb_rel.Shred in
  let per_size =
    List.map
      (fun n ->
        let doc = D.records_doc n in
        let t = SH.create () in
        let docid = SH.shred t doc in
        let _, nodes = SH.stats t in
        let ctx = Xdb_xpath.Eval.make_context doc in
        (* a second document where the looked-up name is rare (one <name>
           per region, ~1/500 nodes): the descendant lookup the name
           postings exist for, vs a full DOM walk *)
        let sales = D.sales_doc (n / 50) 100 in
        let ts = SH.create () in
        let sales_docid = SH.shred ts sales in
        let sales_ctx = Xdb_xpath.Eval.make_context sales in
        let target = string_of_int (n / 2) in
        (* broad name-tested descendant fetch (every 10th node matches),
           selective descendant lookup, and two value-predicate forms *)
        let queries =
          [
            ("descendant", t, docid, ctx, "descendant::name");
            ("lookup", ts, sales_docid, sales_ctx, "descendant::name");
            ("desc-value", t, docid, ctx, Printf.sprintf "descendant::id[.='%s']" target);
            ("child-value", t, docid, ctx, Printf.sprintf "descendant::row[id='%s']" target);
          ]
        in
        let legs =
          List.map
            (fun (label, t, docid, ctx, q) ->
              let _, nodes = SH.stats t in
              assert (
                SH.serialize t ~docid (SH.select t ~docid q)
                = SH.serialize_dom (Xdb_xpath.Eval.select ctx q));
              let dom = time_ms (fun () -> ignore (Xdb_xpath.Eval.select ctx q)) in
              let shred = time_ms (fun () -> ignore (SH.select t ~docid q)) in
              (label, nodes, q, dom, shred, dom.med /. shred.med))
            queries
        in
        let leg shred_key speedup_key (label, nodes, q, dom, shred, speedup) =
          [ ("nodes", I nodes); ("query", S label); ("xpath", S q) ]
          @ timed "dom_ms" dom @ timed shred_key shred
          @ [ (speedup_key, f3 speedup); ("identical", B true) ]
        in
        let sp l =
          List.fold_left (fun acc (l', _, _, _, _, s) -> if l' = l then s else acc) 0.0 legs
        in
        let tot f = List.fold_left (fun acc (_, _, _, d, s, _) -> acc +. (f (d, s)).med) 0.0 legs in
        let tot_dom = tot fst and tot_shred = tot snd in
        ( List.map (leg "shred_ms" "speedup") legs,
          [ ("nodes", I nodes); ("dom_ms", f4 tot_dom); ("shred_ms", f4 tot_shred);
            ("total_speedup", f3 (tot_dom /. tot_shred)); ("lookup_speedup", f3 (sp "lookup"));
            ("all_identical", B true) ],
          List.map (leg "batch_ms" "speedup_vs_dom") legs,
          [ ("nodes", I nodes); ("descendant_speedup", f3 (sp "descendant"));
            ("child_value_speedup", f3 (sp "child-value")); ("lookup_speedup", f3 (sp "lookup"));
            ("all_identical", B true) ] ))
      sizes
  in
  let title = "shredscale: DOM tree walk vs shredded staircase sweeps" in
  [
    report "BENCH_PR6" "shredscale" title
      (List.concat_map (fun (l, _, _, _) -> l) per_size)
      ~summary:(List.map (fun (_, s, _, _) -> s) per_size);
    report "BENCH_PR8" "shredscale-batch" (title ^ " (batch evaluator vs DOM)")
      (List.concat_map (fun (_, _, l, _) -> l) per_size)
      ~summary:(List.map (fun (_, _, _, s) -> s) per_size);
  ]

(* ------------------------------------------------------------------ *)
(* servebench: closed-loop concurrent serving workload                 *)
(* ------------------------------------------------------------------ *)

module SV = Xdb_core.Server
module EN = Xdb_core.Engine

(* nearest-rank percentile over an unsorted sample list, ms *)
let pct samples q =
  match samples with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let n = Array.length a in
      a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Closed-loop workload: N client domains over one Xdb.Server, each
   looping a mixed stylesheet set (the three Records-shape cases, so one
   shared engine/view serves all of them) back-to-back for a fixed total
   request count per leg.  Per (clients, case): throughput and
   p50/p95/p99 latency; every response is checked byte-identical to the
   single-client reference.  A final deterministic overload scenario
   (max_in_flight 1, queue 2, five concurrent requests) demonstrates
   that admission control rejects with Overloaded instead of
   deadlocking. *)
let servebench ?(size = 2_000) ?(clients_list = [ 1; 2; 4 ]) ?(per_case = 24) () =
  let nproc = Xdb_core.Parallel.default_jobs () in
  let dv = D.records_db size in
  let engine = EN.create dv.D.db in
  EN.register_view engine dv.D.view;
  let view_name = dv.D.view.Xdb_rel.Publish.view_name in
  let cases =
    List.map
      (fun name ->
        let c = if name = "dbonerow" then M.dbonerow_for size else Option.get (M.find name) in
        (name, c.M.stylesheet))
      [ "dbonerow"; "avts"; "metric" ]
  in
  (* single-client reference outputs (and plan-cache warmup) *)
  let reference =
    List.map
      (fun (name, ss) -> (name, (EN.transform engine ~view_name ~stylesheet:ss).EN.output))
      cases
  in
  let per_clients =
    List.map
      (fun clients ->
        (* in-flight bounded to the core count: admission control's job is
           to keep offered load from oversubscribing domains (running more
           mutating domains than cores collapses under the stop-the-world
           GC); excess clients wait in the queue, descheduled *)
        let server = SV.create ~max_in_flight:nproc ~max_queue:256 engine in
        let iters = max 1 (per_case / clients) in
        (* each client: its own session, [iters] closed-loop passes over
           the mixed case set, per-request latency + identity checks.  A
           client's clock starts once every client has reached the start
           barrier and stops before it returns, so the wall time leaves
           out [Domain.spawn] and [Domain.join] *)
        let arrived = Atomic.make 0 in
        let run_client i =
          Atomic.incr arrived;
          while Atomic.get arrived < clients do
            Domain.cpu_relax ()
          done;
          let t0 = Unix.gettimeofday () in
          let sess = SV.open_session ~name:(Printf.sprintf "c%d" i) server in
          let out = ref [] in
          for _ = 1 to iters do
            List.iter
              (fun (name, ss) ->
                let t0 = Unix.gettimeofday () in
                let r = SV.transform sess ~view_name ~stylesheet:ss in
                let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
                out := (name, ms, r.EN.output = List.assoc name reference) :: !out)
              cases
          done;
          SV.close_session sess;
          (t0, Unix.gettimeofday (), !out)
        in
        let runs =
          if clients = 1 then [ run_client 0 ]
          else
            List.map Domain.join
              (List.init clients (fun i -> Domain.spawn (fun () -> run_client i)))
        in
        let first_start = List.fold_left (fun m (t0, _, _) -> Float.min m t0) infinity runs
        and last_stop = List.fold_left (fun m (_, t1, _) -> Float.max m t1) 0.0 runs in
        let wall_ms = (last_stop -. first_start) *. 1000.0 in
        let snap = SV.snapshot server in
        SV.shutdown server;
        let samples = List.concat_map (fun (_, _, out) -> out) runs in
        let rps k = f3 (float_of_int k /. (wall_ms /. 1000.0)) in
        let legs =
          List.map
            (fun (case, _) ->
              let ours = List.filter (fun (n, _, _) -> n = case) samples in
              let lats = List.map (fun (_, ms, _) -> ms) ours in
              let identical = List.for_all (fun (_, _, ok) -> ok) ours in
              assert identical;
              [ ("clients", I clients); ("case", S case); ("requests", I (List.length ours));
                ("throughput_rps", rps (List.length ours)); ("p50_ms", f4 (pct lats 0.50));
                ("p95_ms", f4 (pct lats 0.95)); ("p99_ms", f4 (pct lats 0.99));
                ("identical", B identical) ])
            cases
        in
        ( legs,
          [ ("rows", I size); ("clients", I clients); ("requests", I (List.length samples));
            ("wall_ms", f4 wall_ms); ("throughput_rps", rps (List.length samples));
            ("queued", I snap.SV.queued); ("rejected", I snap.SV.rejected) ] ))
      clients_list
  in
  (* deterministic overload: one slot, a queue of two, five concurrent
     requests — two must be rejected with Overloaded, none may hang *)
  let overload =
    let server = SV.create ~max_in_flight:1 ~max_queue:2 engine in
    let blocker = Mutex.create () in
    Mutex.lock blocker;
    let sess = SV.open_session ~name:"hot" server in
    let blocked () =
      Domain.spawn (fun () ->
          SV.submit sess (fun _ ->
              Mutex.lock blocker;
              Mutex.unlock blocker))
    in
    let wait_for what cond =
      let deadline = Unix.gettimeofday () +. 10.0 in
      while not (cond (SV.snapshot server)) do
        if Unix.gettimeofday () > deadline then failwith ("servebench overload: " ^ what);
        Unix.sleepf 0.002
      done
    in
    let d1 = blocked () in
    wait_for "first request never started" (fun s -> s.SV.in_flight = 1);
    let d2 = blocked () and d3 = blocked () in
    wait_for "queue never filled" (fun s -> s.SV.queue_depth = 2);
    for _ = 1 to 2 do
      match SV.submit sess (fun _ -> ()) with
      | () -> ()
      | exception Xdb_core.Xdb_error.Error (Xdb_core.Xdb_error.Overloaded _) -> ()
    done;
    Mutex.unlock blocker;
    List.iter Domain.join [ d1; d2; d3 ];
    let snap = SV.snapshot server in
    SV.shutdown server;
    [ ("scenario", S "overload"); ("max_in_flight", I 1); ("max_queue", I 2); ("attempted", I 5);
      ("accepted", I snap.SV.accepted); ("queued", I snap.SV.queued);
      ("rejected", I snap.SV.rejected); ("completed", I snap.SV.completed);
      ("deadlock_free", B true) ]
  in
  EN.shutdown engine;
  report "BENCH_PR7" "servebench"
    (Printf.sprintf "servebench: closed-loop serving over one shared Engine (nproc %d)" nproc)
    (List.concat_map fst per_clients)
    ~summary:(List.map snd per_clients @ [ overload ])

(* ------------------------------------------------------------------ *)
(* rwbench: mixed read/write workload over the result cache            *)
(* ------------------------------------------------------------------ *)

(* The DML payoff measured end to end.  Three parts:

   1. cached-read speedup: the same transform served from the result
      cache vs forced recompute ([result_cache = false]) — the cache hit
      is a hash probe plus per-table version compares, so the gap is the
      whole plan execution;
   2. mixed legs (95/5 and 50/50 read/write): a deterministic LCG
      interleaves UPDATEs through [Engine.execute] with transform reads.
      EVERY read is recomputed with the cache off and compared
      byte-for-byte against the cached answer — [stale_reads] counts
      mismatches and must be zero;
   3. per-leg hit ratio from the engine's result-cache counters, showing
      how write frequency degrades cacheability (95/5 should still hit
      on most reads, 50/50 mostly misses). *)
let rwbench ?(size = 2_000) ?(requests = 400) () =
  let fresh_engine () =
    let dv = D.records_db size in
    let engine = EN.create dv.D.db in
    EN.register_view engine dv.D.view;
    (engine, dv.D.view.Xdb_rel.Publish.view_name)
  in
  (* avts touches every row (recompute is O(n)), and its output renders
     [name] but never reads [value] — so name-writes move the published
     bytes (one member: the cache patches the page) while value-writes
     leave them as they are (the cache keeps the page), trapping any
     cache that serves a page the writes reached *)
  let stylesheet = (Option.get (M.find "avts")).M.stylesheet in
  let nocache = { EN.default_run_options with EN.result_cache = false } in
  (* part 1: cached read vs recompute, same request *)
  let engine, view_name = fresh_engine () in
  let read ?options () = (EN.transform ?options engine ~view_name ~stylesheet).EN.output in
  let reference = read () (* populates the cache *) in
  let cached = time_ms ~repeat:9 (fun () -> ignore (read ())) in
  let recompute = time_ms ~repeat:9 (fun () -> ignore (read ~options:nocache ())) in
  assert (read () = reference);
  EN.shutdown engine;
  (* parts 2+3: mixed legs *)
  let legs =
    List.map
      (fun write_pct ->
        let engine, view_name = fresh_engine () in
        let rand = D.lcg (size + (97 * write_pct)) in
        let reads = ref 0 and writes = ref 0 and stale = ref 0 in
        let read_lat = ref [] and write_lat = ref [] in
        let t0 = Unix.gettimeofday () in
        for i = 1 to requests do
          if rand 100 < write_pct then begin
            (* alternate output-visible (name) and invalidate-only
               (value) writes *)
            let id = 1 + rand size in
            let stmt =
              if i mod 2 = 0 then
                Printf.sprintf "UPDATE rows SET name = 'write%06d' WHERE id = %d" i id
              else Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" (rand 10_000) id
            in
            let _, ms = time_once (fun () -> ignore (EN.execute engine stmt)) in
            incr writes;
            write_lat := ms :: !write_lat
          end
          else begin
            let out, ms =
              time_once (fun () -> (EN.transform engine ~view_name ~stylesheet).EN.output)
            in
            let recomputed =
              (EN.transform ~options:nocache engine ~view_name ~stylesheet).EN.output
            in
            incr reads;
            read_lat := ms :: !read_lat;
            if out <> recomputed then incr stale
          end
        done;
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let hits = List.assoc "result_cache_hits" (EN.result_cache_counters engine) in
        EN.shutdown engine;
        (* staleness is a correctness bug, not a performance number *)
        assert (!stale = 0);
        [ ("mix", S (Printf.sprintf "%d/%d" (100 - write_pct) write_pct));
          ("write_pct", I write_pct); ("requests", I requests); ("reads", I !reads);
          ("writes", I !writes); ("cache_hits", I hits);
          ("hit_ratio", f4 (float_of_int hits /. float_of_int (max 1 !reads)));
          ("read_p50_ms", f4 (pct !read_lat 0.50)); ("write_p50_ms", f4 (pct !write_lat 0.50));
          ("wall_ms", f4 wall_ms); ("stale_reads", I !stale) ])
      [ 5; 50 ]
  in
  report "BENCH_PR10" "rwbench"
    (Printf.sprintf "rwbench: DML + data-versioned result cache (rows %d)" size)
    legs
    ~summary:
      [ [ ("part", S "cached_read"); ("rows", I size) ]
        @ timed "cached_ms" cached @ timed "recompute_ms" recompute
        @ [ ("speedup", f2 (recompute.med /. cached.med)) ] ]

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

(* a gate's measured value, its predicate and its threshold, or why the
   gate does not apply on this host *)
type outcome = Measured of float * (string * (float -> float -> bool)) * float | Skip of string

(* a check over the rows of a report written to the file [bench] *)
type gate = { bench : string; name : string; measure : report -> outcome }

let le = ("<=", ( <= )) and lt = ("<", ( < )) and ge = (">=", ( >= )) and gt = (">", ( > ))
let eq = ("=", ( = ))

(* RFC 8259 syntax of a whole text, no more *)
let json_valid s =
  let n = String.length s and i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let skip chars = while !i < n && String.contains chars s.[!i] do incr i done in
  let expect c = if peek () = c then incr i else raise Exit in
  let word w = String.iter expect w in
  let str () =
    expect '"';
    while peek () <> '"' do
      if !i >= n || s.[!i] < ' ' then raise Exit;
      i := !i + if s.[!i] = '\\' then 2 else 1
    done;
    incr i
  in
  let rec value () =
    skip " \t\r\n";
    (match peek () with
    | '{' -> incr i; skip " \t\r\n"; if peek () = '}' then incr i else seq member '}'
    | '[' -> incr i; skip " \t\r\n"; if peek () = ']' then incr i else seq value ']'
    | '"' -> str ()
    | 't' -> word "true"
    | 'f' -> word "false"
    | 'n' -> word "null"
    | '-' | '0' .. '9' ->
        let j = !i in
        skip "+-0123456789.eE";
        if float_of_string_opt (String.sub s j (!i - j)) = None then raise Exit
    | _ -> raise Exit);
    skip " \t\r\n"
  and member () =
    skip " \t\r\n";
    str ();
    skip " \t\r\n";
    expect ':';
    value ()
  and seq item close =
    item ();
    if peek () = ',' then (incr i; seq item close) else expect close
  in
  match value () with () -> !i = n | exception Exit -> false

let num row key =
  match List.assoc_opt key row with
  | Some (I i) -> float_of_int i
  | Some (F (_, x)) -> x
  | Some (B b) -> if b then 1.0 else 0.0
  | _ -> Float.nan

let has key v row = List.assoc_opt key row = Some v
let sum rows f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows

let largest key = function
  | [] -> raise Not_found
  | r :: rows -> List.fold_left (fun a r -> if num r key > num a key then r else a) r rows

let gate bench name measure = { bench; name; measure }
let value_at rows pred key cmp threshold = Measured (num (List.find pred rows) key, cmp, threshold)

(* compared legs (identical true or false, not null) that came out
   byte-identical, against all compared legs *)
let identity bench what =
  gate bench (what ^ " byte-identical (compared legs)") (fun r ->
      let compared = List.filter (fun l -> not (Float.is_nan (num l "identical"))) r.legs in
      Measured (sum compared (fun l -> num l "identical"), eq, float_of_int (List.length compared)))

(* Every threshold the benchmark holds the program to, once each. *)
let gates =
  let nproc = Xdb_core.Parallel.default_jobs () in
  let rows64k = has "rows" (I 64000) and overload = has "scenario" (S "overload") in
  [
    gate "BENCH_PR1" "BENCH_PR1.json is valid JSON" (fun r ->
        let ic = open_in_bin (r.bench ^ ".json") in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Measured ((if json_valid text then 1.0 else 0.0), eq, 1.0));
    gate "BENCH_PR2" "median q-error with statistics" (fun r ->
        value_at r.summary (has "case" (S "OVERALL")) "median_qerror" le 4.0);
    gate "BENCH_PR4" "64k: stream alloc bytes < DOM alloc bytes" (fun r ->
        let s = List.find rows64k r.summary in
        Measured (num s "stream_alloc_bytes", lt, num s "dom_alloc_bytes"));
    gate "BENCH_PR4" "64k: stream ms <= DOM ms" (fun r ->
        let s = List.find rows64k r.summary in
        Measured (num s "stream_ms", le, num s "dom_ms"));
    identity "BENCH_PR5" "parallel runs";
    gate "BENCH_PR5" "64k: 4-domain speedup" (fun r ->
        if nproc < 4 then
          Skip (Printf.sprintf "nproc=%d < 4: a pool would only oversubscribe" nproc)
        else value_at r.summary (fun s -> rows64k s && has "jobs" (I 4) s) "speedup" ge 1.5);
    identity "BENCH_PR6" "shredded results";
    gate "BENCH_PR6" "largest leg's nodes" (fun r ->
        Measured (num (largest "nodes" r.summary) "nodes", ge, 50_000.0));
    gate "BENCH_PR6" "lookup speedup over the DOM walk above 50k nodes" (fun r ->
        value_at r.legs
          (fun l -> has "query" (S "lookup") l && num l "nodes" > 50_000.0)
          "speedup" gt 1.0);
    identity "BENCH_PR8" "batched results";
    gate "BENCH_PR8" "largest leg's nodes" (fun r ->
        Measured (num (largest "nodes" r.summary) "nodes", ge, 50_000.0));
    gate "BENCH_PR8" "largest leg: broad-descendant speedup" (fun r ->
        Measured (num (largest "nodes" r.summary) "descendant_speedup", ge, 1.0));
    gate "BENCH_PR8" "largest leg: child-value speedup" (fun r ->
        Measured (num (largest "nodes" r.summary) "child_value_speedup", ge, 1.0));
    gate "BENCH_PR8" "largest leg: name-postings lookup speedup" (fun r ->
        Measured (num (largest "nodes" r.summary) "lookup_speedup", ge, 100.0));
    identity "BENCH_PR9" "join results";
    gate "BENCH_PR9" "100k tag: hash join speedup over the nested loop" (fun r ->
        value_at r.legs
          (fun l -> has "rows" (I 100_000) l && has "dim" (S "tag") l)
          "speedup_hash_vs_nl" ge 5.0);
    identity "BENCH_PR7" "served responses";
    gate "BENCH_PR7" "overload: deadlock free" (fun r ->
        value_at r.summary overload "deadlock_free" eq 1.0);
    gate "BENCH_PR7" "overload: rejected" (fun r -> value_at r.summary overload "rejected" gt 0.0);
    gate "BENCH_PR7" "overload: accepted + rejected = attempted" (fun r ->
        let o = List.find overload r.summary in
        Measured (num o "accepted" +. num o "rejected", eq, num o "attempted"));
    gate "BENCH_PR7" "overload: completed = accepted" (fun r ->
        let o = List.find overload r.summary in
        Measured (num o "completed", eq, num o "accepted"));
    gate "BENCH_PR7" "throughput r/s: most clients vs 1 client" (fun r ->
        if nproc < 2 then
          Skip (Printf.sprintf "nproc=%d < 2: concurrent clients would only oversubscribe" nproc)
        else
          let clients = List.filter (List.mem_assoc "clients") r.summary in
          let one = List.find (has "clients" (I 1)) clients in
          let top = largest "clients" clients in
          Measured (num top "throughput_rps", ge, num one "throughput_rps"));
    gate "BENCH_PR10" "stale reads, every leg" (fun r ->
        Measured (sum r.legs (fun l -> num l "stale_reads"), eq, 0.0));
    gate "BENCH_PR10" "reads + writes off requests, every leg" (fun r ->
        let off l = Float.abs (num l "requests" -. num l "reads" -. num l "writes") in
        Measured (sum r.legs off, eq, 0.0));
    gate "BENCH_PR10" "cached read speedup over recompute" (fun r ->
        value_at r.summary (has "part" (S "cached_read")) "speedup" ge 20.0);
    gate "BENCH_PR10" "95/5: cache hits" (fun r ->
        value_at r.legs (has "write_pct" (I 5)) "cache_hits" gt 0.0);
    gate "BENCH_PR10" "hit ratio: 95/5 vs 50/50" (fun r ->
        let ratio pct = num (List.find (has "write_pct" (I pct)) r.legs) "hit_ratio" in
        Measured (ratio 5, gt, ratio 50));
  ]

(* prints the gate's line; false when it failed *)
let run_gate r g =
  let show x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.4f" x in
  let verdict, detail =
    match g.measure r with
    | Skip reason -> ("SKIP", Printf.sprintf "(%s)" reason)
    | Measured (v, (op, holds), t) ->
        ((if holds v t then "PASS" else "FAIL"), Printf.sprintf "%s %s %s" (show v) op (show t))
    | exception Not_found -> ("FAIL", "(a row it reads is missing)")
  in
  Printf.printf "%s %s %s: %s\n" verdict g.bench g.name detail;
  verdict <> "FAIL"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* (name, runs by default, target), in run order *)
let targets =
  [
    ("inline-stat", true, fun () -> [ inline_stat () ]);
    ("fig2", true, fun () -> [ fig2 () ]);
    (* one small fig2 size, still exercising the full instrumented
       pipeline and the BENCH_PR1.json artifact *)
    ("fig2-smoke", false, fun () -> [ fig2 ~figure:"fig2-smoke" ~sizes:[ 2_000 ] () ]);
    ("fig3", true, fun () -> [ fig3 () ]);
    ("planquality", true, fun () -> [ planquality () ]);
    ("joinscale", true, fun () -> [ joinscale () ]);
    (* 100k rows only, so the forced nested loop stays cheap *)
    ("joinscale-smoke", false, fun () -> [ joinscale ~sizes:[ 100_000 ] () ]);
    ("pubstream", true, fun () -> [ pubstream () ]);
    ("parscale", true, fun () -> [ parscale () ]);
    ("shredscale", true, fun () -> shredscale ());
    ("servebench", true, fun () -> [ servebench () ]);
    ("rwbench", true, fun () -> [ rwbench () ]);
    (* fewer requests, same mixes, same artifact *)
    ("rwbench-smoke", false, fun () -> [ rwbench ~size:1_000 ~requests:120 () ]);
    ("ablation", true, fun () -> [ ablation () ]);
    ("storage", true, fun () -> [ storage () ]);
    ("partial", true, fun () -> [ partial_inline () ]);
  ]

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a ->
      if not (List.exists (fun (n, _, _) -> n = a) targets) then begin
        Printf.eprintf "unknown target %s; targets: %s\n" a
          (String.concat " " (List.map (fun (n, _, _) -> n) targets));
        exit 2
      end)
    names;
  let failed = ref 0 in
  List.iter
    (fun (name, default, run) ->
      if List.mem name names || (names = [] && default) then
        List.iter
          (fun r ->
            emit r;
            List.iter (fun g -> if g.bench = r.bench && not (run_gate r g) then incr failed) gates;
            print_newline ())
          (run ()))
    targets;
  if !failed > 0 then begin
    Printf.printf "%d gate(s) failed\n" !failed;
    exit 1
  end
