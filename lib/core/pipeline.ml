(** End-to-end XSLT processing pipelines (paper Figure 1).

    Three evaluation strategies over an XMLType view:

    - {b Functional} ("XSLT no rewrite"): materialise each view document
      from the relational tables, then run the XSLTVM over the DOM — the
      paper's baseline;
    - {b XQuery stage}: run the XSLT→XQuery translation result dynamically
      over the materialised documents (used for differential testing of the
      translation itself);
    - {b Rewrite} ("XSLT rewrite"): XSLT→XQuery→SQL/XML; execute the
      relational plan with index access, never materialising the input.
      When the generated XQuery leaves the SQL-rewritable fragment the
      pipeline records the reason and falls back to the XQuery stage.

    [transform_document] covers the no-database case (standalone document +
    schema), and [compose] implements Example 2's combined optimisation. *)

let log_src = Logs.Src.create "xdb.pipeline" ~doc:"XSLT rewrite pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

module X = Xdb_xml.Types
module S = Xdb_schema.Types
module Q = Xdb_xquery.Ast
module A = Xdb_rel.Algebra
module P = Xdb_rel.Publish
module V = Xdb_rel.Value

type compiled = {
  vm_prog : Xdb_xslt.Compile.program;
  view : P.view;
  schema : S.t;
  translation : Xslt2xquery.result;
  sql_plan : A.plan option;
  sql_fallback_reason : string option;
  deps : string list;
  footprint : Xdb_rel.Footprint.memo option;
}

(* time a compile stage when a metrics collector is present *)
let staged metrics name f =
  match metrics with None -> f () | Some m -> Metrics.time m name f

(* the stages before the SQL rewrite: parse, bytecode, the view's
   structural information, and the XSLT→XQuery translation *)
let front ~options ?metrics (view : P.view) stylesheet_text =
  let stylesheet = staged metrics "parse" (fun () -> Xdb_xslt.Parser.parse stylesheet_text) in
  let vm_prog = staged metrics "bytecode" (fun () -> Xdb_xslt.Compile.compile stylesheet) in
  Log.debug (fun m ->
      m "compiled stylesheet for view %s: %d templates, %d bytecode ops" view.P.view_name
        (Array.length vm_prog.Xdb_xslt.Compile.templates)
        (Xdb_xslt.Compile.program_size vm_prog));
  let schema = staged metrics "schema" (fun () -> P.to_schema view) in
  let translation =
    staged metrics "translate" (fun () -> Xslt2xquery.translate ~options vm_prog ~schema)
  in
  Log.info (fun m ->
      m "XSLT→XQuery translation: %s mode, %d user functions"
        (match translation.Xslt2xquery.mode with
        | Xslt2xquery.Mode_inline -> "inline"
        | Xslt2xquery.Mode_partial_inline -> "partial-inline"
        | Xslt2xquery.Mode_functions -> "non-inline"
        | Xslt2xquery.Mode_builtin_compact -> "builtin-compact")
        (List.length translation.Xslt2xquery.query.Q.funs));
  (vm_prog, schema, translation)

(* per-pass planning time: the optimiser's unnest/isolate/order/rewrite
   passes appear as their own [opt_*] stages under --metrics *)
let opt_timer metrics = Option.map (fun m -> fun name f -> Metrics.time m name f) metrics

(* the compile counters under --metrics *)
let count_compile metrics vm_prog translation ~rewritable =
  Option.iter
    (fun m ->
      Metrics.incr ~by:(Xdb_xslt.Compile.program_size vm_prog) m "bytecode_ops";
      Metrics.incr ~by:(List.length translation.Xslt2xquery.query.Q.funs) m "xquery_functions";
      Metrics.incr ~by:(if rewritable then 1 else 0) m "sql_rewritable")
    metrics

(* the view's own tables (what the functional fallback materialises
   from) and whatever the plan scans or probes *)
let deps_of (view : P.view) sql_plan =
  List.sort_uniq compare (P.view_tables view @ Option.fold ~none:[] ~some:A.tables_of sql_plan)

(* the compiled record around a plan (or the reason there is none) *)
let assemble ?deps (view : P.view) vm_prog schema translation (sql_plan, sql_fallback_reason) =
  let deps = match deps with Some d -> d | None -> deps_of view sql_plan in
  let footprint = Option.map Xdb_rel.Footprint.memo sql_plan in
  { vm_prog; view; schema; translation; sql_plan; sql_fallback_reason; deps; footprint }

(** [compile ?options ?metrics db view stylesheet_text] — full compilation:
    stylesheet → bytecode → (partial evaluation over the view's structural
    info) → XQuery → SQL/XML plan.  With [metrics], each stage's wall time
    is recorded under [parse]/[bytecode]/[schema]/[translate]/[sql_rewrite]. *)
let compile ?(options = Options.default) ?metrics db (view : P.view) stylesheet_text : compiled =
  let vm_prog, schema, translation = front ~options ?metrics view stylesheet_text in
  let plan =
    staged metrics "sql_rewrite" (fun () ->
        match
          Xdb_xquery.Sql_rewrite.rewrite_view_plan ?timer:(opt_timer metrics) db view
            translation.Xslt2xquery.query
        with
        | plan ->
            Log.info (fun m -> m "XQuery→SQL/XML rewrite succeeded");
            (Some plan, None)
        | exception Xdb_xquery.Sql_rewrite.Not_rewritable reason ->
            Log.info (fun m -> m "not SQL-rewritable (%s); dynamic fallback armed" reason);
            (None, Some reason))
  in
  count_compile metrics vm_prog translation ~rewritable:(Option.is_some (fst plan));
  assemble view vm_prog schema translation plan

(* ------------------------------------------------------------------ *)
(* Stylesheet shapes: integer literals as plan parameters               *)
(* ------------------------------------------------------------------ *)

type template = {
  t_view : P.view;
  t_schema : S.t;
  t_prog : Xdb_xslt.Compile.program;  (** slot [i] is the variable [param_var i] *)
  t_translation : Xslt2xquery.result;  (** likewise *)
  t_plan : A.plan;  (** the rewrite, not optimised, [Param] leaves in place *)
}

(* Every parameter occurs in [plan], and only as a direct operand of a
   comparison whose other side reads data: there the literal it stands
   for is a constant the optimiser costs, never output or folded. *)
let parameters_shareable plan n =
  let rec reads_data = function
    | A.Col _ | A.Scalar_subquery _ | A.Exists _ -> true
    | A.Fn (_, args) -> List.exists reads_data args
    | A.Binop (_, a, b) -> reads_data a || reads_data b
    | A.Not a | A.Is_null a -> reads_data a
    | _ -> false
  in
  let operands = ref [] and seen = Array.make n false and stray = ref false in
  A.iter plan ~plan:ignore ~expr:(fun e ->
      match e with
      | A.Binop ((A.Eq | A.Neq | A.Lt | A.Leq | A.Gt | A.Geq), a, b) -> (
          match (a, b) with
          | A.Param _, other when reads_data other -> operands := a :: !operands
          | other, A.Param _ when reads_data other -> operands := b :: !operands
          | _ -> ())
      | A.Param i -> if i < n && List.memq e !operands then seen.(i) <- true else stray := true
      | _ -> ());
  (not !stray) && Array.for_all Fun.id seen

(* An optimised template plan and what its cost choices read: it is the
   plan every binding gets whose reads replay equal. *)
type variant = {
  v_plan : A.plan;  (** optimised, [Param] leaves in place *)
  v_values : int array;  (** the binding it was optimised for *)
  v_reads : Xdb_rel.Cost.read list;  (** that binding's literal reads, oldest first *)
  v_stats : int;  (** the statistics version it was costed against *)
  v_tables : (string * Xdb_rel.Table.t * int) list;
      (** each table the plan reads, with its row count: a scan's cost
          reads the live count, which DML moves without touching the
          statistics version *)
  v_deps : string list;  (** the compiled record's [deps], the same for every binding *)
}

let literals values = Array.map (fun k -> V.Int k) values

(** [optimise ?metrics db t values] — optimise the template's plan with
    its parameters in place, the cost model reading their values from
    [values] ([opt_*] stages under [metrics]). *)
let optimise ?metrics db (t : template) values =
  let binding = Xdb_rel.Cost.binding (literals values) in
  let v_stats = Xdb_rel.Database.stats_version db in
  let v_plan = Xdb_rel.Optimizer.optimize_deep ?timer:(opt_timer metrics) ~binding db t.t_plan in
  let tables = A.tables_of t.t_plan in
  {
    v_plan;
    v_values = values;
    v_reads = Xdb_rel.Cost.reads binding;
    v_stats;
    v_tables =
      List.filter_map
        (fun name ->
          Option.map (fun tb -> (name, tb, Xdb_rel.Table.size tb)) (Xdb_rel.Database.table_opt db name))
        tables;
    v_deps = deps_of t.t_view (Some v_plan);
  }

(* do slots equal in [a] stay equal in [b], and unequal ones unequal?
   (an index range [x >= p0 AND x <= p1] is an equality exactly when
   the two slots hold one value) *)
let same_pattern a b =
  let same = ref (Array.length a = Array.length b) in
  for i = 0 to Array.length a - 1 do
    for j = 0 to i - 1 do
      if !same && (a.(i) = a.(j)) <> (b.(i) = b.(j)) then same := false
    done
  done;
  !same

(** [replays db v values] — would optimising for [values] give [v]'s
    plan?  Yes when the statistics version, the tables and their row
    counts have not moved, the slots' equalities are [v]'s, and every
    logged literal read gives a bit-identical estimate. *)
let replays db v values =
  Xdb_rel.Database.stats_version db = v.v_stats
  && List.for_all
       (fun (name, tb, n) ->
         match Xdb_rel.Database.table_opt db name with
         | Some tb' -> tb' == tb && Xdb_rel.Table.size tb = n
         | None -> false)
       v.v_tables
  && same_pattern v.v_values values
  && Xdb_rel.Cost.replays v.v_reads (literals values)

(** [bind t v values] — the compilation of the text whose slots hold
    [values], given a variant that {!replays} for them: each parameter
    becomes its integer in the XQuery, in the bytecode (bound as a
    global) and in [v]'s optimised plan. *)
let bind (t : template) v (values : int array) : compiled =
  let number i = float_of_int values.(i) in
  let plan = A.bind_params (literals values) v.v_plan in
  let globals =
    List.init (Array.length values) (fun i ->
        ( Xdb_xquery.Sql_rewrite.param_var i,
          Xdb_xslt.Compile.C_select (Xdb_xpath.Ast.Number (number i)) ))
  in
  let vm_prog =
    { t.t_prog with Xdb_xslt.Compile.globals = globals @ t.t_prog.Xdb_xslt.Compile.globals }
  in
  let query =
    Xdb_xquery.Ast.bind_vars
      (fun v -> Option.map number (Xdb_xquery.Sql_rewrite.param_of_var v))
      t.t_translation.Xslt2xquery.query
  in
  assemble ~deps:v.v_deps t.t_view vm_prog t.t_schema
    { t.t_translation with Xslt2xquery.query }
    (Some plan, None)

(** [compile_template ?options ?metrics db view shape values] — compile
    a shape ({!Shape.cut}) once with its slots as parameters; [Some
    (template, variant, compilation)] for [values], or [None] when the
    shape is unshareable. *)
let compile_template ?(options = Options.default) ?metrics db (view : P.view) shape values =
  match front ~options ?metrics view shape with
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception _ ->
      (* e.g. partial evaluation reading a slot of an xsl:if test *)
      None
  | vm_prog, schema, translation ->
      let params = Array.length values in
      let bound =
        staged metrics "sql_rewrite" (fun () ->
            match Xdb_xquery.Sql_rewrite.view_plan db view translation.Xslt2xquery.query with
            | plan when parameters_shareable plan params ->
                let t =
                  {
                    t_view = view;
                    t_schema = schema;
                    t_prog = vm_prog;
                    t_translation = translation;
                    t_plan = plan;
                  }
                in
                let v = optimise ?metrics db t values in
                Some (t, v, bind t v values)
            | _ | (exception Xdb_xquery.Sql_rewrite.Not_rewritable _) -> None)
      in
      if Option.is_some bound then count_compile metrics vm_prog translation ~rewritable:true;
      bound

(* ------------------------------------------------------------------ *)
(* Splitting a run: output documents across the pool                    *)
(* ------------------------------------------------------------------ *)

(** [per_document ?pool items chunk] — one output document per item, in
    order: [chunk ()] makes a serializer (typically over a fresh reused
    buffer), applied to each item's index and value.  Sequential with one
    serializer unless [pool] has more than one domain; then the items go
    across the pool in contiguous chunks, four per domain, each with its
    own serializer. *)
let per_document ?pool items chunk : string list =
  match pool with
  | Some pool when Parallel.jobs pool > 1 ->
      let items = Array.of_list items in
      let ranges =
        Array.of_list
          (Parallel.chunk_ranges ~total:(Array.length items) ~chunks:(4 * Parallel.jobs pool))
      in
      Parallel.run pool
        (fun c ->
          let lo, hi = ranges.(c) in
          let doc = chunk () in
          List.init (hi - lo) (fun k -> doc (lo + k) items.(lo + k)))
        (Array.length ranges)
      |> Array.to_list |> List.concat
  | _ -> List.mapi (chunk ()) items

(** Functional evaluation: materialise + XSLTVM (the no-rewrite baseline).
    With [metrics], materialisation and transformation times are recorded
    under [materialize]/[vm_transform]. *)
let run_functional ?metrics db (c : compiled) : string list =
  let docs = staged metrics "materialize" (fun () -> P.materialize db c.view) in
  staged metrics "vm_transform" (fun () ->
      List.map
        (fun doc ->
          let frag = Xdb_xslt.Vm.transform c.vm_prog doc in
          Xdb_xml.Serializer.node_list_to_string frag.X.children)
        docs)

(** Dynamic evaluation of the generated XQuery over materialised documents
    (whitespace stripping applied, mirroring the VM).  Each document's
    result serializes in one pass ({!Xdb_xquery.Eval.run_serialized}) —
    no copy of the result forest is built. *)
let run_xquery_stage ?metrics db (c : compiled) : string list =
  let docs = staged metrics "materialize" (fun () -> P.materialize db c.view) in
  staged metrics "xquery_eval" (fun () ->
      List.map
        (fun doc ->
          let doc = Xdb_xslt.Strip.apply c.vm_prog.Xdb_xslt.Compile.space doc in
          Xdb_xquery.Eval.run_serialized c.translation.Xslt2xquery.query ~context:doc)
        docs)

(* the rewrite plans project a single "result" column; resolve its slot
   once against the plan's layout instead of List.assoc per row.  Streamed
   XMLType results drain into a buffer reused across documents — the "no
   intermediate tree" half of the Figure 3 argument, applied to output.
   Draining is most of a rewrite run, so that is what [pool] splits. *)
let result_column ?pool ?record (layout, rows) =
  match Xdb_rel.Layout.slot_opt layout "result" with
  | Some s ->
      per_document ?pool rows (fun () ->
          let buf = Buffer.create 1024 in
          fun doc (r : V.t array) ->
            match r.(s) with
            | V.Xml_stream produce ->
                Buffer.clear buf;
                let sink, pending = Xdb_xml.Events.content_sink buf in
                Option.iter (fun rc -> Xdb_rel.Exec.record_document rc ~doc sink buf pending) record;
                produce sink;
                sink.Xdb_xml.Events.finish ();
                Buffer.contents buf
            | v -> V.to_string v)
  | None ->
      raise
        (Xdb_rel.Exec.Exec_error
           (Printf.sprintf "plan produced no result column (available columns: %s)"
              (Xdb_rel.Layout.describe layout)))

(** Rewrite evaluation: the SQL/XML plan when available, XQuery stage
    otherwise.  With [metrics], plan execution time is recorded under
    [sql_exec] (or the fallback's stages).  The plan's XML constructors
    emit output events drained straight into each document's buffer, with
    no per-row result tree.  The plan runs on the caller; a multi-domain
    [pool] drains its documents across the domains ({!per_document}), so
    output is byte-identical to the sequential run. *)
let run_rewrite ?metrics ?pool ?on_members db (c : compiled) : string list =
  match c.sql_plan with
  | Some plan ->
      (* a sequential run records the patchable members *)
      let split = match pool with Some p -> Parallel.jobs p > 1 | None -> false in
      let recording =
        match (on_members, c.footprint) with
        | Some f, Some fp when not split -> (
            match Xdb_rel.Footprint.get fp with
            | { Xdb_rel.Footprint.members = Some m; _ } -> Some (f, Xdb_rel.Exec.recorder m)
            | _ -> None)
        | _ -> None
      in
      let record = Option.map snd recording in
      let out =
        staged metrics "sql_exec" (fun () ->
            result_column ?pool ?record
              (Xdb_rel.Exec.run_arrays db ~xml_streaming:true ?record plan))
      in
      Option.iter (fun (f, rc) -> Option.iter f (Xdb_rel.Exec.recorded rc plan)) recording;
      out
  | None -> run_xquery_stage ?metrics db c

(** Rewrite evaluation with per-operator instrumentation: returns the
    results and the operator stats when a SQL/XML plan exists.  Always
    sequential: the collector's counters are plain fields, and the
    documents' drain runs the plan's correlated subplans. *)
let run_rewrite_analyzed ?metrics db (c : compiled) : string list * Xdb_rel.Stats.t option =
  match c.sql_plan with
  | Some plan ->
      let out, stats =
        staged metrics "sql_exec" (fun () ->
            Xdb_rel.Exec.run_arrays_analyzed db ~xml_streaming:true plan)
      in
      (result_column out, Some stats)
  | None -> (run_xquery_stage ?metrics db c, None)

(** Example 2: compose an XQuery child path over the XSLT view result and
    rewrite the composition down to one relational plan (paper Table 11). *)
let compose db (c : compiled) (steps : Xdb_xpath.Ast.step list) :
    A.plan option * Q.prog =
  let composed = Xdb_xquery.Compose.navigate c.translation.Xslt2xquery.query steps in
  match Xdb_xquery.Sql_rewrite.rewrite_view_plan db c.view composed with
  | plan -> (Some plan, composed)
  | exception Xdb_xquery.Sql_rewrite.Not_rewritable _ -> (None, composed)

(** Evaluate a composed query dynamically (fallback / differential check). *)
let run_composed_dynamic db (c : compiled) (composed : Q.prog) : string list =
  let docs = P.materialize db c.view in
  List.map
    (fun doc ->
      Xdb_xml.Serializer.node_list_to_string (Xdb_xquery.Eval.run_to_nodes composed ~context:doc))
    docs

(* ------------------------------------------------------------------ *)
(* Standalone documents (no database)                                   *)
(* ------------------------------------------------------------------ *)

type doc_compiled = {
  d_prog : Xdb_xslt.Compile.program;
  d_schema : S.t;
  d_translation : Xslt2xquery.result;
}

(** [compile_for_document ?options ?schema stylesheet_text ~example_doc] —
    partial evaluation against a registered schema, or against structural
    information inferred from a representative document. *)
let compile_for_document ?(options = Options.default) ?schema stylesheet_text ~example_doc :
    doc_compiled =
  let stylesheet = Xdb_xslt.Parser.parse stylesheet_text in
  let d_prog = Xdb_xslt.Compile.compile stylesheet in
  let d_schema =
    match schema with Some s -> s | None -> Xdb_schema.Infer.infer [ example_doc ]
  in
  let d_translation = Xslt2xquery.translate ~options d_prog ~schema:d_schema in
  { d_prog; d_schema; d_translation }

(** Functional transformation of one document. *)
let transform_functional (dc : doc_compiled) doc =
  let frag = Xdb_xslt.Vm.transform dc.d_prog doc in
  Xdb_xml.Serializer.node_list_to_string frag.X.children

(** Transformation through the generated XQuery (whitespace stripping
    applied, mirroring the VM); serializes in one pass. *)
let transform_via_xquery (dc : doc_compiled) doc =
  let doc = Xdb_xslt.Strip.apply dc.d_prog.Xdb_xslt.Compile.space doc in
  Xdb_xquery.Eval.run_serialized dc.d_translation.Xslt2xquery.query ~context:doc

let compile_shredded ?metrics stylesheet_text =
  let stylesheet = staged metrics "parse" (fun () -> Xdb_xslt.Parser.parse stylesheet_text) in
  staged metrics "bytecode" (fun () -> Shred_vm.compile (Xdb_xslt.Compile.compile stylesheet))

let run_shredded ?metrics ?pool (shred : Xdb_rel.Shred.t) (prog : Shred_vm.program) docids :
    string list =
  let transform docid =
    let count name = Option.iter (fun m -> Metrics.incr m name) metrics in
    match
      staged metrics "shred_vm" (fun () ->
          try Some (Shred_vm.run prog shred docid)
          with Shred_vm.Fallback reason ->
            Log.debug (fun m -> m "shredded VM fallback for doc %d: %s" docid reason);
            None)
    with
    | Some s ->
        count "shred_vm_docs";
        s
    | None ->
        count "shred_vm_fallback_docs";
        let doc =
          staged metrics "reconstruct" (fun () -> Xdb_rel.Shred.reconstruct shred docid)
        in
        staged metrics "vm_transform" (fun () ->
            let frag = Xdb_xslt.Vm.transform (Shred_vm.bytecode prog) doc in
            Xdb_xml.Serializer.node_list_to_string frag.X.children)
  in
  let c0 = Xdb_rel.Shred.counters shred in
  let out = per_document ?pool docids (fun () _ -> transform) in
  (match metrics with
  | Some m ->
      let c1 = Xdb_rel.Shred.counters shred in
      Metrics.incr ~by:(c1.Xdb_rel.Shred.batch_steps - c0.Xdb_rel.Shred.batch_steps) m
        "shred_batch_steps";
      Metrics.incr ~by:(c1.Xdb_rel.Shred.rel_steps - c0.Xdb_rel.Shred.rel_steps) m
        "shred_rel_steps";
      Metrics.incr ~by:(c1.Xdb_rel.Shred.dom_fallbacks - c0.Xdb_rel.Shred.dom_fallbacks) m
        "shred_dom_fallbacks"
  | None -> ());
  out

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let mode_name = function
  | Xslt2xquery.Mode_inline -> "inline"
  | Xslt2xquery.Mode_partial_inline -> "partial-inline"
  | Xslt2xquery.Mode_functions -> "non-inline"
  | Xslt2xquery.Mode_builtin_compact -> "builtin-compact"

(** Multi-section EXPLAIN: generated XQuery, execution graph, SQL plan. *)
let explain (c : compiled) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "-- translation mode: %s\n" (mode_name c.translation.Xslt2xquery.mode));
  (match c.translation.Xslt2xquery.graph with
  | Some g ->
      Buffer.add_string buf "-- template execution graph:\n";
      Buffer.add_string buf (Trace.to_string g)
  | None -> ());
  Buffer.add_string buf "-- generated XQuery:\n";
  Buffer.add_string buf (Xdb_xquery.Pretty.prog_syntax c.translation.Xslt2xquery.query);
  Buffer.add_string buf "\n";
  (match (c.sql_plan, c.sql_fallback_reason) with
  | Some plan, _ ->
      Buffer.add_string buf "-- SQL/XML plan:\n";
      Buffer.add_string buf (A.explain plan)
  | None, Some reason ->
      Buffer.add_string buf (Printf.sprintf "-- not SQL-rewritable: %s\n" reason)
  | None, None -> ());
  Buffer.contents buf

(** EXPLAIN ANALYZE: execute the SQL/XML plan with instrumentation and
    render estimated vs actual rows, loops, B-tree probes and wall time
    per operator, sequentially ({!run_rewrite_analyzed}).  Ends with the
    plan's write footprint ({!Xdb_rel.Footprint.describe} of the
    footprint the result cache judges with).  Reports the fallback
    reason when no plan exists. *)
let explain_analyze db (c : compiled) : string =
  match c.sql_plan with
  | Some plan ->
      let stats = Option.get (snd (run_rewrite_analyzed db c)) in
      let footprint =
        match c.footprint with
        | None -> ""
        | Some fp ->
            let columns (t, _) =
              let tbl = Xdb_rel.Database.table db t in
              (t, Array.to_list (Array.map (fun c -> c.Xdb_rel.Table.col_name) tbl.Xdb_rel.Table.columns))
            in
            let fp = Xdb_rel.Footprint.get fp in
            "-- write footprint (an UPDATE of each column, for a cached page):\n"
            ^ Xdb_rel.Footprint.describe fp (List.map columns fp.Xdb_rel.Footprint.reads)
      in
      Xdb_rel.Optimizer.explain_analyze db plan stats ^ footprint
  | None ->
      Printf.sprintf "-- no SQL/XML plan to analyze%s\n"
        (match c.sql_fallback_reason with
        | Some r -> " (not SQL-rewritable: " ^ r ^ ")"
        | None -> "")
