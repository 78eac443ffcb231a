(* Differential test suite over all XSLTMark-style cases.

   For every case: the functional XSLTVM output must equal the output of
   the generated XQuery (dynamic evaluation); for database-capable cases
   the SQL/XML plan's output must also match; the translation mode must be
   the expected one; and the paper's 23/40 inline statistic must hold
   exactly. *)

module M = Xdb_xsltmark.Cases
module D = Xdb_xsltmark.Data
module PL = Xdb_core.Pipeline
module GEN = Xdb_core.Xslt2xquery

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string
let ci = Alcotest.int

let size = 120

let is_inline = function
  | GEN.Mode_inline | GEN.Mode_builtin_compact -> true
  | GEN.Mode_partial_inline | GEN.Mode_functions -> false

let doc_case (c : M.case) () =
  let c = if c.M.name = "dbonerow" then M.dbonerow_for size else c in
  let doc = M.doc_for c size in
  let dc = PL.compile_for_document c.M.stylesheet ~example_doc:doc in
  let functional = PL.transform_functional dc doc in
  let via_xquery = PL.transform_via_xquery dc doc in
  check cs "functional = generated XQuery" functional via_xquery;
  check cb
    (Printf.sprintf "expected inline=%b" c.M.expect_inline)
    c.M.expect_inline
    (is_inline dc.PL.d_translation.GEN.mode);
  (* straightforward translation must agree too (it shares no structural
     information with the optimised path) *)
  let sf = GEN.translate_straightforward dc.PL.d_prog ~schema:dc.PL.d_schema in
  let sf_out =
    Xdb_xml.Serializer.node_list_to_string
      (Xdb_xquery.Eval.run_to_nodes sf.GEN.query ~context:doc)
  in
  check cs "functional = straightforward [9]" functional sf_out;
  (* §7.2 extension: a recursive case compiled partial-inline prints
     what the non-inline compile prints *)
  if not c.M.expect_inline then begin
    let pi =
      PL.compile_for_document ~options:Xdb_core.Options.with_partial_inline c.M.stylesheet
        ~example_doc:doc
    in
    check cs "functional = partial inline (§7.2)" functional (PL.transform_via_xquery pi doc)
  end

let db_case (c : M.case) () =
  let c = if c.M.name = "dbonerow" then M.dbonerow_for size else c in
  let dv = M.dbview_for c size in
  let comp = PL.compile dv.D.db dv.D.view c.M.stylesheet in
  let f = PL.run_functional dv.D.db comp in
  let r = PL.run_rewrite dv.D.db comp in
  check Alcotest.(list string) "functional = rewrite (DB)" f r;
  check cb "SQL plan produced" true (comp.PL.sql_plan <> None)

(* golden streaming differential: result construction through output
   events must be byte-identical to the DOM path on every case — the
   XQuery serializer for all cases, and for the db-capable ones the
   streamed SQL/XML rewrite against the functional VM over the DOM *)
let streaming_case (c : M.case) () =
  let c = if c.M.name = "dbonerow" then M.dbonerow_for size else c in
  let doc = M.doc_for c size in
  let dc = PL.compile_for_document c.M.stylesheet ~example_doc:doc in
  let q = dc.PL.d_translation.GEN.query in
  let dom =
    Xdb_xml.Serializer.node_list_to_string (Xdb_xquery.Eval.run_to_nodes q ~context:doc)
  in
  let streamed = Xdb_xquery.Eval.run_serialized q ~context:doc in
  check cs "streamed XQuery = DOM XQuery" dom streamed;
  if c.M.db_capable then begin
    let dv = M.dbview_for c size in
    let comp = PL.compile dv.D.db dv.D.view c.M.stylesheet in
    check Alcotest.(list string) "streamed rewrite = functional VM"
      (PL.run_functional dv.D.db comp) (PL.run_rewrite dv.D.db comp)
  end

let inline_statistic () =
  let inline =
    List.filter
      (fun (c : M.case) ->
        let doc = M.doc_for c 60 in
        let dc = PL.compile_for_document c.M.stylesheet ~example_doc:doc in
        is_inline dc.PL.d_translation.GEN.mode)
      M.all
  in
  check ci "paper statistic: 23 of 40 inline" 23 (List.length inline);
  check ci "suite has exactly 40 cases" 40 (List.length M.all)

(* ------------------------------------------------------------------ *)
(* Random-stylesheet equivalence property                               *)
(*                                                                      *)
(* Build a random (but deterministic per seed) stylesheet over the      *)
(* records shape and require: functional VM output = optimised-XQuery   *)
(* output = straightforward-translation output = SQL-plan output (when  *)
(* the plan exists).                                                    *)
(* ------------------------------------------------------------------ *)

let random_stylesheet seed =
  let rand = D.lcg seed in
  let pick a = a.(rand (Array.length a)) in
  let col () = pick [| "id"; "name"; "value"; "category" |] in
  let pred () =
    match rand 4 with
    | 0 -> ""
    | 1 -> Printf.sprintf "[value &gt; %d]" (rand 9000)
    | 2 -> Printf.sprintf "[id = %d]" (1 + rand 60)
    | _ -> Printf.sprintf "[category = '%s']" (pick [| "A"; "B"; "C" |])
  in
  let sort () =
    match rand 3 with
    | 0 -> ""
    | 1 -> {|<xsl:sort select="name"/>|}
    | _ -> {|<xsl:sort select="value" data-type="number" order="descending"/>|}
  in
  let piece () =
    match rand 6 with
    | 0 -> Printf.sprintf {|<v><xsl:value-of select="%s"/></v>|} (col ())
    | 1 -> Printf.sprintf {|<w a="{%s}"/>|} (col ())
    | 2 ->
        Printf.sprintf
          {|<xsl:if test="value &gt; %d"><big><xsl:value-of select="id"/></big></xsl:if>|}
          (rand 9000)
    | 3 ->
        Printf.sprintf
          {|<xsl:choose><xsl:when test="value &gt; %d"><hi/></xsl:when><xsl:otherwise><lo><xsl:value-of select="%s"/></lo></xsl:otherwise></xsl:choose>|}
          (rand 9000) (col ())
    | 4 -> Printf.sprintf {|<xsl:element name="e%d"><xsl:value-of select="%s"/></xsl:element>|} (rand 3) (col ())
    | _ -> "<sep/>"
  in
  let row_body = String.concat "" (List.init (1 + rand 3) (fun _ -> piece ())) in
  let decoys =
    String.concat ""
      (List.init (rand 3) (fun i ->
           Printf.sprintf {|<xsl:template match="ghost%d"><never/></xsl:template>|} i))
  in
  Printf.sprintf
    {|<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table">
<out><xsl:apply-templates select="row%s">%s</xsl:apply-templates></out>
</xsl:template>
<xsl:template match="row">%s</xsl:template>
%s<xsl:template match="text()"/>
</xsl:stylesheet>|}
    (pred ()) (sort ()) row_body decoys

let prop_random_stylesheets =
  QCheck.Test.make ~name:"random stylesheets: VM = XQuery = straightforward = SQL" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ss = random_stylesheet seed in
      let n = 60 in
      let dv = D.records_db n in
      let comp = PL.compile dv.D.db dv.D.view ss in
      let functional = PL.run_functional dv.D.db comp in
      let xquery_stage = PL.run_xquery_stage dv.D.db comp in
      let rewrite = PL.run_rewrite dv.D.db comp in
      let doc = List.hd (Xdb_rel.Publish.materialize dv.D.db dv.D.view) in
      let sf =
        GEN.translate_straightforward comp.PL.vm_prog ~schema:comp.PL.schema
      in
      let sf_out =
        [ Xdb_xml.Serializer.node_list_to_string
            (Xdb_xquery.Eval.run_to_nodes sf.GEN.query ~context:doc) ]
      in
      (* the shredded VM over the same document, stored shredded *)
      let engine = Xdb_core.Engine.create (Xdb_rel.Database.create ()) in
      let id = Xdb_core.Engine.store_shredded engine doc in
      let shredded =
        (Xdb_core.Engine.run engine (Xdb_core.Engine.Shredded (Some [ id ])) ~stylesheet:ss)
          .Xdb_core.Engine.output
      in
      Xdb_core.Engine.shutdown engine;
      functional = xquery_stage && functional = rewrite && functional = sf_out
      && functional = shredded)

(* the compiled layout/batch executor against the reference executor,
   across all five db-capable bench cases, with and without ANALYZE
   statistics (statistics change the chosen plan, not the answer).
   Row-for-row: same cardinality, same value for every column name the
   plan's layout exposes (values compared serialized — XML nodes carry
   parent pointers, so structural equality is out), and identical
   per-operator actual-row counts under instrumentation. *)
let bench_db_case_names = [ "dbonerow"; "avts"; "chart"; "metric"; "total" ]

let prop_compiled_executor_differential =
  QCheck.Test.make ~name:"compiled executor = interpreted reference (db cases)" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let name = List.nth bench_db_case_names (seed mod 5) in
      let with_stats = seed / 5 mod 2 = 1 in
      let n = 20 + (seed / 10 mod 4 * 35) in
      let c = Option.get (M.find name) in
      let c = if c.M.name = "dbonerow" then M.dbonerow_for n else c in
      let dv = M.dbview_for c n in
      if with_stats then ignore (Xdb_rel.Analyze.all dv.D.db);
      let comp = PL.compile dv.D.db dv.D.view c.M.stylesheet in
      match comp.PL.sql_plan with
      | None -> false (* all five cases are SQL-rewritable *)
      | Some plan ->
          let module E = Xdb_rel.Exec in
          let module L = Xdb_rel.Layout in
          let irows = Ref_exec.run dv.D.db plan in
          let layout, arows = E.run_arrays dv.D.db plan in
          let names = L.names layout in
          let slots =
            List.map (fun nm -> (nm, Option.get (L.slot_opt layout nm))) names
          in
          let rows_same =
            List.length irows = List.length arows
            && List.for_all2
                 (fun ir (ar : Xdb_rel.Value.t array) ->
                   List.for_all
                     (fun (nm, s) ->
                       Xdb_rel.Value.to_string (List.assoc nm ir)
                       = Xdb_rel.Value.to_string ar.(s))
                     slots)
                 irows arows
          in
          let _, st_i = Ref_exec.run_analyzed dv.D.db plan in
          let _, st_c = E.run_arrays_analyzed dv.D.db plan in
          rows_same
          && Xdb_rel.Stats.rows_signature st_i = Xdb_rel.Stats.rows_signature st_c)

(* Shape sharing: every db-capable case (and its variant with [&gt;]
   written [>], which exposes the literals of its value predicates to
   the cut) with its cut literals randomised — values inside and outside
   the skewed [value] column's MCVs and histogram, 0 and out of range.
   Four texts per shape through one engine, the third with every slot
   holding one value, and an UPDATE plus ANALYZE after the second, so
   later texts bind a shared template and either replay its optimised
   plan or re-optimise it: each output equals the functional VM's and
   each EXPLAIN and EXPLAIN ANALYZE (timings left out) equals an
   exact-text compile's.  dbonerow's bindings must replay at least
   once. *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then Buffer.add_substring b s i (String.length s - i)
    else if String.sub s i n = sub then (
      Buffer.add_string b by;
      go (i + n))
    else (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

let without_timings s =
  String.split_on_char ' ' s
  |> List.filter (fun w -> not (String.starts_with ~prefix:"time=" w))
  |> String.concat " "

let literal_pool = [| 0; 1; 7; 2500; 5000; 8000; 9000; 9999; 10_000; 123_456_789 |]

let prop_shape_sharing =
  let cases = List.filter (fun (c : M.case) -> c.M.db_capable) (M.all @ M.extras) in
  QCheck.Test.make ~name:"shape hits: output = functional VM, EXPLAIN = exact compile" ~count:150
    QCheck.(pair (int_bound 1_000_000) (list_of_size Gen.(return 16) (int_bound 12_000)))
    (fun (seed, randoms) ->
      let c = List.nth cases (seed mod List.length cases) in
      let text = if seed / 64 mod 2 = 0 then c.M.stylesheet else replace_all ~sub:"&gt;" ~by:">" c.M.stylesheet in
      let n = 60 in
      let dv = M.dbview_for c n in
      let db = dv.D.db and view_name = dv.D.view.Xdb_rel.Publish.view_name in
      let e = Xdb_core.Engine.create db in
      Xdb_core.Engine.register_view e dv.D.view;
      let records = view_name = "records_vu" in
      (* skew: a third of the records share one value (an MCV) *)
      if records then
        ignore (Xdb_core.Engine.execute e (Printf.sprintf "UPDATE rows SET value = 7 WHERE id <= %d" (n / 3)));
      ignore (Xdb_core.Engine.execute e "ANALYZE");
      let pick i =
        (* a shrunk list may be shorter *)
        let r = match randoms with [] -> 0 | _ -> List.nth randoms (i mod List.length randoms) in
        if r mod 2 = 0 then literal_pool.(r / 2 mod Array.length literal_pool) else r
      in
      let texts =
        match Xdb_core.Shape.cut text with
        | None -> [ text ]
        | Some (shape, values) ->
            List.map
              (fun round ->
                let s = ref shape in
                for i = Array.length values - 1 downto 0 do
                  let slot = if round = 2 then 0 else i in
                  s :=
                    replace_all
                      ~sub:("$" ^ Xdb_xquery.Sql_rewrite.param_var i)
                      ~by:(string_of_int (pick ((round * 4) + slot)))
                      !s
                done;
                !s)
              [ 0; 1; 2; 3 ]
      in
      let nc = { Xdb_core.Engine.default_run_options with Xdb_core.Engine.result_cache = false } in
      let agrees i text =
        (* the statistics move between the second and third texts *)
        if i = 2 then begin
          if records then
            ignore (Xdb_core.Engine.execute e (Printf.sprintf "UPDATE rows SET value = 9000 WHERE id > %d" (n / 2)));
          ignore (Xdb_core.Engine.execute e "ANALYZE")
        end;
        let exact = PL.compile db dv.D.view text in
        (Xdb_core.Engine.transform ~options:nc e ~view_name ~stylesheet:text).Xdb_core.Engine.output
        = PL.run_functional db exact
        && Xdb_core.Engine.explain e ~view_name ~stylesheet:text = PL.explain exact
        && without_timings (Xdb_core.Engine.explain_analyze e ~view_name ~stylesheet:text)
           = without_timings (PL.explain_analyze db exact)
      in
      let counter name = List.assoc name (Xdb_core.Engine.registry_counters e) in
      let ok = List.for_all Fun.id (List.mapi agrees texts) in
      let shared = counter "cache_unshareable" = 0 && List.length texts > 1 in
      (* every binding of a shared shape is a template hit or its miss *)
      let replayed = counter "template_optimizations" < counter "cache_hits" + counter "cache_misses" in
      Xdb_core.Engine.shutdown e;
      ok
      && counter "recompilations" = counter "cache_misses" + counter "cache_stale"
      (* dbonerow's key is always a shared parameter, and some binding
         of it reuses an optimised plan *)
      && (c.M.name <> "dbonerow" || (shared && replayed)))

(* Four domains bind one shape with in-range and out-of-range keys
   interleaved, so each replaces the template's optimised variant under
   the others: every output stays the exact-text compile's. *)
let test_shape_replay_domains () =
  let n = 200 in
  let dv = D.records_db n in
  let db = dv.D.db and view_name = "records_vu" in
  let e = Xdb_core.Engine.create db in
  Xdb_core.Engine.register_view e dv.D.view;
  ignore (Xdb_core.Engine.execute e "ANALYZE");
  let keys = [| 3; 0; 150; 123_456_789; 77; 5000; 1 |] in
  let expected =
    Array.map (fun k -> PL.run_functional db (PL.compile db dv.D.view (M.dbonerow_stylesheet k))) keys
  in
  let nc = { Xdb_core.Engine.default_run_options with Xdb_core.Engine.result_cache = false } in
  (* the template exists before the domains start: concurrent misses
     may each compile it *)
  ignore (Xdb_core.Engine.transform ~options:nc e ~view_name ~stylesheet:(M.dbonerow_stylesheet 2));
  let client d () =
    let bad = ref 0 in
    for i = 0 to 199 do
      let j = (i + d) mod Array.length keys in
      let out =
        (Xdb_core.Engine.transform ~options:nc e ~view_name ~stylesheet:(M.dbonerow_stylesheet keys.(j)))
          .Xdb_core.Engine.output
      in
      if out <> expected.(j) then incr bad
    done;
    !bad
  in
  let bad = List.map Domain.join (List.init 4 (fun d -> Domain.spawn (client d))) in
  let counter name = List.assoc name (Xdb_core.Engine.registry_counters e) in
  Xdb_core.Engine.shutdown e;
  check ci "every output the exact compile's" 0 (List.fold_left ( + ) 0 bad);
  check ci "one template" 1 (counter "cache_misses");
  check cb "variants replaced" true (counter "template_optimizations" > 1)

let () =
  let all = M.all @ M.extras in
  Alcotest.run "xsltmark"
    [
      ( "differential-doc",
        List.map
          (fun (c : M.case) -> Alcotest.test_case c.M.name `Quick (doc_case c))
          all );
      ( "differential-db",
        List.filter_map
          (fun (c : M.case) ->
            if c.M.db_capable then Some (Alcotest.test_case c.M.name `Quick (db_case c))
            else None)
          all );
      ( "streaming-golden",
        List.map
          (fun (c : M.case) -> Alcotest.test_case c.M.name `Quick (streaming_case c))
          all );
      ("statistics", [ Alcotest.test_case "23/40 inline" `Quick inline_statistic ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_stylesheets;
          QCheck_alcotest.to_alcotest prop_compiled_executor_differential;
          QCheck_alcotest.to_alcotest prop_shape_sharing;
          Alcotest.test_case "shape replay under 4 domains" `Quick test_shape_replay_domains;
        ] );
    ]
