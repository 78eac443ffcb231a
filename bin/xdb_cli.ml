(** [xdb] — command-line front end.

    Subcommands:
    - [transform]  — apply a stylesheet to an XML document file
                     (functional VM, generated XQuery, or both with a
                     differential check);
    - [translate]  — print the XQuery generated from a stylesheet
                     (optionally against a DTD-lite schema file);
    - [explain]    — run one of the built-in XSLTMark-style cases against
                     its generated database and print the full pipeline
                     explanation (execution graph, XQuery, SQL plan);
    - [publish]    — print a case's XMLType view documents, streaming
                     output events straight into the serializer;
    - [serve]      — run a closed-loop concurrent workload (N client
                     domains × a mixed case set) through [Xdb.Server]
                     sessions over one shared engine, with admission
                     control, and report throughput, latency
                     percentiles and the server metrics;
    - [shell]/[sql] — the SQL/XML statement surface over a demo
                     database: selects, XMLTransform/XMLQuery, CREATE
                     VIEW, ANALYZE and INSERT/UPDATE/DELETE, all through
                     [Engine.execute];
    - [cases]      — list the built-in benchmark cases. *)

open Cmdliner

let verbose =
  let doc = "Enable debug logging of the rewrite pipeline." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs v =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if v then Logs.Debug else Logs.Warning))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Shared run options (transform / explain / publish)                  *)
(* ------------------------------------------------------------------ *)

(* one flag set, one record, identical semantics in every subcommand *)
let run_options_term =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the pipeline metrics record (per-stage timings and counters) as JSON.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of domains for parallel execution (default 1 = sequential).  The plan \
             runs on one domain, then its output documents serialize across the pool in \
             contiguous chunks (for views, publishing and shredded documents alike); output \
             is byte-identical to the sequential run, and the $(b,sql_exec) stage of \
             $(b,--metrics) is then wall time.  $(b,--explain-analyze) always runs \
             sequentially.")
  in
  let no_result_cache =
    Arg.(
      value & flag
      & info [ "no-result-cache" ]
          ~doc:
            "Bypass the data-versioned result cache: always recompute the output instead of \
             serving cached bytes when the dependency tables are unchanged.")
  in
  let mk metrics jobs no_result_cache =
    {
      Xdb_core.Engine.jobs = max 1 jobs;
      collect_metrics = metrics;
      result_cache = not no_result_cache;
      indent = false;
    }
  in
  Term.(const mk $ metrics $ jobs $ no_result_cache)

(* run [f], rendering facade errors as one line instead of a backtrace *)
let with_engine_errors f =
  try f () with
  | Xdb_core.Xdb_error.Error e ->
      Printf.eprintf "xdb: %s\n" (Xdb_core.Xdb_error.to_string e);
      exit 1

let print_metrics = function
  | None -> ()
  | Some m ->
      print_endline "-- pipeline metrics:";
      print_endline (Xdb_core.Metrics.to_json m)

(* resolve a db-capable built-in case to an engine + registered view *)
let engine_for_case name size =
  match Xdb_xsltmark.Cases.find name with
  | None ->
      Printf.eprintf "unknown case %S (see `xdb_cli cases`)\n" name;
      exit 2
  | Some case ->
      let case =
        if case.Xdb_xsltmark.Cases.name = "dbonerow" then Xdb_xsltmark.Cases.dbonerow_for size
        else case
      in
      if not case.Xdb_xsltmark.Cases.db_capable then None
      else (
        let dv = Xdb_xsltmark.Cases.dbview_for case size in
        let engine = Xdb_core.Engine.create dv.Xdb_xsltmark.Data.db in
        Xdb_core.Engine.register_view engine dv.Xdb_xsltmark.Data.view;
        Some
          ( engine,
            dv.Xdb_xsltmark.Data.view.Xdb_rel.Publish.view_name,
            case.Xdb_xsltmark.Cases.stylesheet,
            case ))

(* ------------------------------------------------------------------ *)
(* transform                                                           *)
(* ------------------------------------------------------------------ *)

let transform_cmd =
  let stylesheet = Arg.(value & pos 0 (some file) None & info [] ~docv:"STYLESHEET") in
  let document = Arg.(value & pos 1 (some file) None & info [] ~docv:"DOCUMENT") in
  let mode =
    Arg.(
      value
      & opt (enum [ ("vm", `Vm); ("xquery", `Xquery); ("both", `Both) ]) `Vm
      & info [ "m"; "mode" ] ~doc:"File mode evaluation: vm (functional), xquery (rewrite), both")
  in
  let case =
    Arg.(
      value
      & opt (some string) None
      & info [ "case" ] ~docv:"CASE"
          ~doc:
            "Transform a built-in db-capable benchmark case through the engine instead of a \
             stylesheet/document file pair ($(b,--metrics)/$(b,--jobs) apply).")
  in
  let size = Arg.(value & opt int 100 & info [ "n"; "size" ] ~doc:"Workload size (rows), with --case") in
  let shredded =
    Arg.(
      value & flag
      & info [ "shredded" ]
          ~doc:
            "Store the input document interval-encoded (one node row per XML node, see \
             $(b,shred)) and transform through the shredded path: the XSLTVM running \
             template match and select as relational scans over the node rows.  Output is \
             byte-identical to the direct paths.")
  in
  (* shred [doc] into a fresh engine and transform through the store *)
  let run_shredded opts stylesheet doc =
    with_engine_errors (fun () ->
        let engine = Xdb_core.Engine.create (Xdb_rel.Database.create ()) in
        ignore (Xdb_core.Engine.store_shredded engine doc);
        let r =
          Xdb_core.Engine.run ~options:opts engine (Xdb_core.Engine.Shredded None) ~stylesheet
        in
        List.iter print_endline r.Xdb_core.Engine.output;
        print_metrics r.Xdb_core.Engine.metrics;
        Xdb_core.Engine.shutdown engine)
  in
  let run verbose stylesheet document mode case size shredded opts =
    setup_logs verbose;
    match case with
    | Some name when shredded -> (
        match Xdb_xsltmark.Cases.find name with
        | None ->
            Printf.eprintf "unknown case %S (see `xdb_cli cases`)\n" name;
            exit 2
        | Some case ->
            (* dbonerow's selected id is baked into the stylesheet per size *)
            let case =
              if case.Xdb_xsltmark.Cases.name = "dbonerow" then
                Xdb_xsltmark.Cases.dbonerow_for size
              else case
            in
            run_shredded opts case.Xdb_xsltmark.Cases.stylesheet
              (Xdb_xsltmark.Cases.doc_for case size))
    | Some name ->
        with_engine_errors (fun () ->
            match engine_for_case name size with
            | None ->
                Printf.eprintf "case %S has no database form\n" name;
                exit 2
            | Some (engine, view_name, stylesheet, _) ->
                let r = Xdb_core.Engine.transform ~options:opts engine ~view_name ~stylesheet in
                List.iter print_endline r.Xdb_core.Engine.output;
                print_metrics r.Xdb_core.Engine.metrics;
                Xdb_core.Engine.shutdown engine)
    | None -> (
        match (stylesheet, document) with
        | Some stylesheet, Some document when shredded ->
            run_shredded opts (read_file stylesheet)
              (Xdb_xml.Parser.parse (read_file document))
        | Some stylesheet, Some document ->
            let ss_text = read_file stylesheet in
            let doc = Xdb_xml.Parser.parse (read_file document) in
            (match mode with
            | `Vm ->
                let frag = Xdb_xslt.Vm.run_stylesheet ss_text doc in
                print_endline (Xdb_xml.Serializer.node_list_to_string frag.Xdb_xml.Types.children)
            | `Xquery ->
                let dc = Xdb_core.Pipeline.compile_for_document ss_text ~example_doc:doc in
                print_endline (Xdb_core.Pipeline.transform_via_xquery dc doc)
            | `Both ->
                let dc = Xdb_core.Pipeline.compile_for_document ss_text ~example_doc:doc in
                let f = Xdb_core.Pipeline.transform_functional dc doc in
                let x = Xdb_core.Pipeline.transform_via_xquery dc doc in
                print_endline f;
                if f = x then prerr_endline "(rewrite output identical)"
                else (
                  prerr_endline "!! rewrite output DIFFERS:";
                  print_endline x;
                  exit 1))
        | _ ->
            prerr_endline "transform: provide STYLESHEET DOCUMENT files, or --case NAME";
            exit 2)
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Apply an XSLT stylesheet to a document or a built-in case")
    Term.(
      const run $ verbose $ stylesheet $ document $ mode $ case $ size $ shredded
      $ run_options_term)

(* ------------------------------------------------------------------ *)
(* shred                                                               *)
(* ------------------------------------------------------------------ *)

let shred_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"XMLFILE") in
  let case =
    Arg.(
      value
      & opt (some string) None
      & info [ "case" ] ~docv:"CASE"
          ~doc:"Shred a built-in benchmark case's document instead of XML files.")
  in
  let size = Arg.(value & opt int 100 & info [ "n"; "size" ] ~doc:"Workload size (rows), with --case") in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"XPATH"
          ~doc:
            "Evaluate an XPath expression over each stored document by relational axis range \
             scans, print the serialized result nodes, and differential-check them against \
             the DOM interpreter.")
  in
  let explain_steps =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"With $(b,--query), print the strategy each location step evaluates with.")
  in
  let run verbose files case size query explain_steps =
    setup_logs verbose;
    let docs =
      match case with
      | Some name -> (
          match Xdb_xsltmark.Cases.find name with
          | None ->
              Printf.eprintf "unknown case %S (see `xdb_cli cases`)\n" name;
              exit 2
          | Some c -> [ Xdb_xsltmark.Cases.doc_for c size ])
      | None -> List.map (fun f -> Xdb_xml.Parser.parse (read_file f)) files
    in
    if docs = [] then (
      prerr_endline "shred: provide XML files or --case NAME";
      exit 2);
    with_engine_errors (fun () ->
        let engine = Xdb_core.Engine.create (Xdb_rel.Database.create ()) in
        let ids = List.map (Xdb_core.Engine.store_shredded engine) docs in
        let s = Xdb_core.Engine.shred_store engine in
        let ndocs, nrows = Xdb_rel.Shred.stats s in
        Printf.printf "shredded %d document(s) into %d node row(s)\n" ndocs nrows;
        match query with
        | None -> ()
        | Some q ->
            List.iter2
              (fun docid doc ->
                let out = Xdb_rel.Shred.serialize s ~docid (Xdb_rel.Shred.select s ~docid q) in
                Printf.printf "-- doc %d: %d node(s)\n" docid (List.length out);
                List.iter print_endline out;
                let dom =
                  Xdb_rel.Shred.serialize_dom
                    (Xdb_xpath.Eval.select (Xdb_xpath.Eval.make_context doc) q)
                in
                if out <> dom then (
                  prerr_endline "!! shredded result DIFFERS from the DOM interpreter";
                  exit 1))
              ids docs;
            let c = Xdb_rel.Shred.counters s in
            Printf.printf
              "-- %d batched step(s), %d per-context step(s), %d DOM fallback(s)\n"
              c.Xdb_rel.Shred.batch_steps c.Xdb_rel.Shred.rel_steps
              c.Xdb_rel.Shred.dom_fallbacks;
            if explain_steps then (
              match Xdb_xpath.Parser.parse q with
              | Xdb_xpath.Ast.Path { steps; _ } ->
                  List.iter
                    (fun (st : Xdb_xpath.Ast.step) ->
                      Printf.printf "-- step %s\n   batch: %s\n"
                        (Xdb_xpath.Ast.step_to_string st)
                        (Xdb_rel.Shred.batch_explain st))
                    steps
              | _ -> prerr_endline "(--explain: not a path expression)"))
  in
  Cmd.v
    (Cmd.info "shred"
       ~doc:
         "Store documents interval-encoded (one pre-ordered node row per XML node) and \
          query them with XPath steps over those rows")
    Term.(const run $ verbose $ files $ case $ size $ query $ explain_steps)

(* ------------------------------------------------------------------ *)
(* translate                                                           *)
(* ------------------------------------------------------------------ *)

let translate_cmd =
  let stylesheet = Arg.(required & pos 0 (some file) None & info [] ~docv:"STYLESHEET") in
  let document =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "document" ] ~doc:"Representative document (structural info inferred)")
  in
  let dtd =
    Arg.(value & opt (some file) None & info [ "s"; "schema" ] ~doc:"DTD-lite schema file")
  in
  let xsd =
    Arg.(value & opt (some file) None & info [ "x"; "xsd" ] ~doc:"XML Schema (XSD subset) file")
  in
  let straightforward =
    Arg.(
      value & flag
      & info [ "straightforward" ]
          ~doc:"Use the straightforward translation of Fokoue et al. [9] (no structural info)")
  in
  let run stylesheet document dtd xsd straightforward =
    let ss_text = read_file stylesheet in
    let prog = Xdb_xslt.Compile.compile (Xdb_xslt.Parser.parse ss_text) in
    let schema =
      match (xsd, dtd, document) with
      | Some path, _, _ -> Xdb_schema.Xsd.parse (read_file path)
      | None, Some path, _ -> Xdb_schema.Dtd.parse (read_file path)
      | None, None, Some path -> Xdb_schema.Infer.infer [ Xdb_xml.Parser.parse (read_file path) ]
      | None, None, None ->
          prerr_endline
            "translate: provide --xsd, --schema or --document for structural information";
          exit 2
    in
    let result =
      if straightforward then Xdb_core.Xslt2xquery.translate_straightforward prog ~schema
      else Xdb_core.Xslt2xquery.translate prog ~schema
    in
    Printf.printf "(: mode: %s :)\n" (Xdb_core.Pipeline.mode_name result.Xdb_core.Xslt2xquery.mode);
    print_endline (Xdb_xquery.Pretty.prog_syntax result.Xdb_core.Xslt2xquery.query)
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Print the XQuery generated from a stylesheet")
    Term.(const run $ stylesheet $ document $ dtd $ xsd $ straightforward)

(* ------------------------------------------------------------------ *)
(* explain / cases                                                     *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let case = Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE") in
  let size = Arg.(value & opt int 100 & info [ "n"; "size" ] ~doc:"Workload size (rows)") in
  let analyze =
    Arg.(
      value & flag
      & info [ "explain-analyze" ]
          ~doc:
            "Execute the SQL/XML plan with instrumentation and print estimated vs actual rows, \
             loops, B-tree probes and wall time per operator (always sequential: \
             $(b,--jobs) does not apply).")
  in
  let collect_stats =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Run ANALYZE over the case database before compiling, so the optimizer costs the \
             plan from collected statistics (histograms, NDV) instead of the System-R \
             defaults.")
  in
  let run verbose name size analyze collect_stats (opts : Xdb_core.Engine.run_options) =
    setup_logs verbose;
    match Xdb_xsltmark.Cases.find name with
    | None ->
        Printf.eprintf "unknown case %S (see `xdb_cli cases`)\n" name;
        exit 2
    | Some case when not case.Xdb_xsltmark.Cases.db_capable ->
        if analyze || opts.collect_metrics || collect_stats then
          prerr_endline
            "(case has no database form; --explain-analyze/--metrics/--analyze ignored)";
        let doc = Xdb_xsltmark.Cases.doc_for case size in
        let dc =
          Xdb_core.Pipeline.compile_for_document case.Xdb_xsltmark.Cases.stylesheet
            ~example_doc:doc
        in
        Printf.printf "-- translation mode: %s\n-- generated XQuery:\n%s\n"
          (Xdb_core.Pipeline.mode_name dc.Xdb_core.Pipeline.d_translation.Xdb_core.Xslt2xquery.mode)
          (Xdb_xquery.Pretty.prog_syntax
             dc.Xdb_core.Pipeline.d_translation.Xdb_core.Xslt2xquery.query)
    | Some _ ->
        with_engine_errors (fun () ->
            match engine_for_case name size with
            | None -> assert false (* db_capable checked above *)
            | Some (engine, view_name, stylesheet, _) ->
                let db = Xdb_core.Engine.database engine in
                if collect_stats then (
                  let analyzed = Xdb_rel.Analyze.all db in
                  Printf.printf "-- ANALYZE: %d table(s), %d rows sampled (stats version %d)\n"
                    (List.length analyzed)
                    (List.fold_left (fun acc (_, n) -> acc + n) 0 analyzed)
                    (Xdb_rel.Database.stats_version db));
                let m =
                  if opts.collect_metrics then Some (Xdb_core.Metrics.create ()) else None
                in
                let staged name f =
                  match m with None -> f () | Some m -> Xdb_core.Metrics.time m name f
                in
                let stmt =
                  staged "prepare" (fun () ->
                      Xdb_core.Engine.prepare ?metrics:m engine ~view_name ~stylesheet)
                in
                print_endline (Xdb_core.Engine.explain_stmt engine stmt);
                if analyze then (
                  print_endline "-- EXPLAIN ANALYZE:";
                  print_endline
                    (staged "sql_exec" (fun () ->
                         Xdb_core.Engine.explain_analyze_stmt engine stmt)));
                print_metrics m;
                Xdb_core.Engine.shutdown engine)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Explain the pipeline for a built-in benchmark case")
    Term.(const run $ verbose $ case $ size $ analyze $ collect_stats $ run_options_term)

(* the statement surface: a demo database behind one engine that owns the
   view registry, result cache and writer lock — shell and sql share it *)
let workload_term =
  Arg.(
    value
    & opt (enum [ ("dept-emp", `Dept_emp); ("records", `Records); ("sales", `Sales) ]) `Dept_emp
    & info [ "w"; "workload" ] ~doc:"Demo database to load (dept-emp, records, sales)")

let sql_engine workload size =
  let dv =
    match workload with
    | `Dept_emp -> Xdb_xsltmark.Data.dept_emp_db (max 1 (size / 10)) 10
    | `Records -> Xdb_xsltmark.Data.records_db size
    | `Sales -> Xdb_xsltmark.Data.sales_db (max 1 (size / 20)) 20
  in
  let engine = Xdb_core.Engine.create dv.Xdb_xsltmark.Data.db in
  Xdb_core.Engine.register_view engine dv.Xdb_xsltmark.Data.view;
  (engine, dv)

let shell_cmd =
  let size = Arg.(value & opt int 100 & info [ "n"; "size" ] ~doc:"Workload size") in
  let run workload size =
    let engine, dv = sql_engine workload size in
    Printf.printf
      "xdb SQL shell — tables: %s; XMLType view: %s(%s)\nStatements end with ';'. Ctrl-D to quit.\n"
      (String.concat ", " (Xdb_rel.Database.table_names dv.Xdb_xsltmark.Data.db))
      dv.Xdb_xsltmark.Data.view.Xdb_rel.Publish.view_name
      dv.Xdb_xsltmark.Data.view.Xdb_rel.Publish.column;
    let buf = Buffer.create 256 in
    (try
       while true do
         if Buffer.length buf = 0 then print_string "sql> " else print_string "...> ";
         flush stdout;
         let line = input_line stdin in
         Buffer.add_string buf line;
         Buffer.add_char buf '\n';
         let text = Buffer.contents buf in
         (* a statement is complete when a ';' appears outside strings *)
         let complete =
           let in_str = ref false and found = ref false in
           String.iter
             (fun c ->
               if c = '\'' then in_str := not !in_str
               else if c = ';' && not !in_str then found := true)
             text;
           !found
         in
         if complete then (
           Buffer.clear buf;
           match Xdb_core.Engine.execute engine text with
           | r -> print_string (Xdb_sql.Engine.render r)
           | exception Xdb_core.Xdb_error.Error e ->
               Printf.printf "error: %s\n" (Xdb_core.Xdb_error.to_string e)
           | exception e -> Printf.printf "error: %s\n" (Printexc.to_string e))
       done
     with End_of_file -> print_newline ())
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive SQL/XML shell over a demo database")
    Term.(const run $ workload_term $ size)

let sql_cmd =
  let size = Arg.(value & opt int 100 & info [ "n"; "size" ] ~doc:"Workload size") in
  let stmts =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"STATEMENT"
          ~doc:
            "SQL statements to run in order (each may also be several statements separated \
             by ';').  SELECT, INSERT/UPDATE/DELETE, ANALYZE, CREATE VIEW, XMLTransform and \
             XMLQuery are all accepted.")
  in
  let run workload size stmts =
    if stmts = [] then (
      prerr_endline "sql: provide at least one STATEMENT (or use `xdb_cli shell`)";
      exit 2);
    let engine, _ = sql_engine workload size in
    let pieces =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun p -> if String.trim p = "" then None else Some p)
            (String.split_on_char ';' s))
        stmts
    in
    with_engine_errors (fun () ->
        List.iter
          (fun text -> print_string (Xdb_sql.Engine.render (Xdb_core.Engine.execute engine text)))
          pieces)
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Run SQL statements (including DML) against a demo database and print the results")
    Term.(const run $ workload_term $ size $ stmts)

let publish_cmd =
  let case = Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE") in
  let size = Arg.(value & opt int 100 & info [ "n"; "size" ] ~doc:"Workload size (rows)") in
  let indent = Arg.(value & flag & info [ "indent" ] ~doc:"Indented output") in
  let run verbose name size indent opts =
    setup_logs verbose;
    with_engine_errors (fun () ->
        match engine_for_case name size with
        | None ->
            Printf.eprintf "case %S has no database form\n" name;
            exit 2
        | Some (engine, view_name, _, _) ->
            let r =
              Xdb_core.Engine.publish ~options:{ opts with Xdb_core.Engine.indent } engine
                ~view_name
            in
            List.iter print_endline r.Xdb_core.Engine.output;
            print_metrics r.Xdb_core.Engine.metrics;
            Xdb_core.Engine.shutdown engine)
  in
  Cmd.v
    (Cmd.info "publish"
       ~doc:"Print a case's XMLType view documents (streamed serialization)")
    Term.(const run $ verbose $ case $ size $ indent $ run_options_term)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let clients =
    Arg.(
      value & opt int 4
      & info [ "c"; "clients" ] ~docv:"N"
          ~doc:"Concurrent client domains, one server session each.")
  in
  let requests =
    Arg.(
      value & opt int 60
      & info [ "r"; "requests" ] ~docv:"N"
          ~doc:"Total requests, split evenly across clients (closed loop: each client \
                issues its next request as soon as the previous one returns).")
  in
  let size = Arg.(value & opt int 2000 & info [ "n"; "size" ] ~doc:"Workload size (rows)") in
  let max_in_flight =
    Arg.(
      value & opt (some int) None
      & info [ "max-in-flight" ] ~docv:"N"
          ~doc:"Admission control: requests executing at once (default: the core count).")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Admission control: waiters beyond $(b,--max-in-flight); past this bound \
                requests are rejected immediately with an overloaded error instead of \
                blocking.")
  in
  let session_cap =
    Arg.(
      value & opt (some int) None
      & info [ "session-cap" ] ~docv:"N"
          ~doc:"Fairness: one session's requests executing at once (default: \
                $(b,--max-in-flight)); a capped session's waiters let later sessions \
                overtake them.")
  in
  let server_metrics =
    Arg.(
      value & flag
      & info [ "server-metrics" ]
          ~doc:"Print the server's metrics collector (counters, queue-wait and \
                service-time histograms and percentiles, per-session counters) as JSON \
                after the run.")
  in
  let run verbose clients requests size max_in_flight max_queue session_cap server_metrics
      (opts : Xdb_core.Engine.run_options) =
    setup_logs verbose;
    let clients = max 1 clients and requests = max 1 requests in
    with_engine_errors (fun () ->
        (* one Records-shape database/view serves all three stylesheets:
           a genuinely mixed workload over one shared engine *)
        let dv = Xdb_xsltmark.Data.records_db size in
        let engine = Xdb_core.Engine.create dv.Xdb_xsltmark.Data.db in
        Xdb_core.Engine.register_view engine dv.Xdb_xsltmark.Data.view;
        let view_name = dv.Xdb_xsltmark.Data.view.Xdb_rel.Publish.view_name in
        let cases =
          List.map
            (fun name ->
              let c =
                if name = "dbonerow" then Xdb_xsltmark.Cases.dbonerow_for size
                else Option.get (Xdb_xsltmark.Cases.find name)
              in
              (name, c.Xdb_xsltmark.Cases.stylesheet))
            [ "dbonerow"; "avts"; "metric" ]
        in
        let ncases = List.length cases in
        let server =
          Xdb_core.Server.create ?max_in_flight ~max_queue ?per_session_cap:session_cap
            ~defaults:opts engine
        in
        let per_client = requests / clients and extra = requests mod clients in
        (* each client: its own session, looping the mixed case set *)
        let run_client i =
          let sess =
            Xdb_core.Server.open_session ~name:(Printf.sprintf "c%d" i) server
          in
          let n = per_client + if i < extra then 1 else 0 in
          let out = ref [] in
          for k = 0 to n - 1 do
            let name, ss = List.nth cases ((i + k) mod ncases) in
            let t0 = Unix.gettimeofday () in
            (match Xdb_core.Server.transform sess ~view_name ~stylesheet:ss with
            | (_ : Xdb_core.Engine.run_result) ->
                out := (name, (Unix.gettimeofday () -. t0) *. 1000.0, true) :: !out
            | exception Xdb_core.Xdb_error.Error (Xdb_core.Xdb_error.Overloaded _) ->
                out := (name, (Unix.gettimeofday () -. t0) *. 1000.0, false) :: !out);
            ()
          done;
          Xdb_core.Server.close_session sess;
          !out
        in
        let t0 = Unix.gettimeofday () in
        let samples =
          if clients = 1 then run_client 0
          else
            List.concat_map Domain.join
              (List.init clients (fun i -> Domain.spawn (fun () -> run_client i)))
        in
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let snap = Xdb_core.Server.snapshot server in
        let pct lats q =
          match lats with
          | [] -> 0.0
          | _ ->
              let a = Array.of_list lats in
              Array.sort compare a;
              let n = Array.length a in
              a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))
        in
        Printf.printf "%-10s %9s %12s %9s %9s %9s\n" "case" "requests" "thrpt(r/s)"
          "p50(ms)" "p95(ms)" "p99(ms)";
        List.iter
          (fun (case, _) ->
            let lats =
              List.filter_map (fun (n, ms, ok) -> if n = case && ok then Some ms else None)
                samples
            in
            let k = List.length lats in
            Printf.printf "%-10s %9d %12.1f %9.3f %9.3f %9.3f\n" case k
              (float_of_int k /. (wall_ms /. 1000.0))
              (pct lats 0.50) (pct lats 0.95) (pct lats 0.99))
          cases;
        let done_ = List.length (List.filter (fun (_, _, ok) -> ok) samples) in
        Printf.printf
          "%d client(s), %d request(s) in %.1fms (%.1f r/s); accepted %d, queued %d, \
           rejected %d\n"
          clients done_ wall_ms
          (float_of_int done_ /. (wall_ms /. 1000.0))
          snap.Xdb_core.Server.accepted snap.Xdb_core.Server.queued
          snap.Xdb_core.Server.rejected;
        if server_metrics then (
          print_endline "-- server metrics:";
          print_endline (Xdb_core.Server.metrics_json server));
        Xdb_core.Server.shutdown server;
        Xdb_core.Engine.shutdown engine)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a closed-loop concurrent workload through server sessions with admission \
          control over one shared engine")
    Term.(
      const run $ verbose $ clients $ requests $ size $ max_in_flight $ max_queue
      $ session_cap $ server_metrics $ run_options_term)

let cases_cmd =
  let run () =
    List.iter
      (fun (c : Xdb_xsltmark.Cases.case) ->
        Printf.printf "%-14s %-12s db:%-5b %s\n" c.Xdb_xsltmark.Cases.name
          c.Xdb_xsltmark.Cases.category c.Xdb_xsltmark.Cases.db_capable
          c.Xdb_xsltmark.Cases.description)
      (Xdb_xsltmark.Cases.all @ Xdb_xsltmark.Cases.extras)
  in
  Cmd.v (Cmd.info "cases" ~doc:"List the built-in benchmark cases") Term.(const run $ const ())

let () =
  let info = Cmd.info "xdb_cli" ~doc:"XSLT processing in a relational database (VLDB'06 repro)" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ transform_cmd; translate_cmd; explain_cmd; publish_cmd; serve_cmd; cases_cmd;
            shell_cmd; sql_cmd; shred_cmd ]))
