(* The repository benchmark harness: one part of a seeded closed-loop
   workload sent through Server -> Engine, timed at the front door,
   checked against independent oracles, and replayed as a traced run
   that splits the same sequence into layers.

     xbench --workload <fig3-pages|adhoc-keyed|shred-docs> --seed N
            --part J --seconds S --trace <0|1>

   One client, one session per engine, jobs = 1, no extra domains.  The
   op sequence is a pure function of (workload, seed, part, seconds): a
   part runs [seconds * rate] ops, the rate chosen so a part measures
   about [seconds] on a 2-vCPU x86-64 VM.  Request classes come from an
   op's position in the sequence, never from its outcome.  run.py runs
   several parts, each in its own process, and combines their results.

   --trace 0 prints the end-to-end metrics of one untraced pass after
   [setups] timed set-ups, every time host-adjusted (see [Probe]);
   --trace 1 runs the first quarter of the sequence untraced (the
   reference for the tracing overhead), then
   replays the whole sequence on a fresh set-up with spans around every
   layer call and prints the per-layer metrics.  The last stdout line is
   the JSON result; spans are written to
   .perfbench-out/spans-<workload>-<part>.tsv. *)

module EN = Xdb_core.Engine
module SV = Xdb_core.Server
module MT = Xdb_core.Metrics
module PL = Xdb_core.Pipeline
module D = Xdb_xsltmark.Data
module C = Xdb_xsltmark.Cases
module X = Xdb_xml.Types
module B = Xdb_xml.Builder
module V = Xdb_rel.Value

let now () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)
(* ------------------------------------------------------------------ *)

(* The CPU a shared host gives this benchmark changes speed by up to
   1.75x over seconds to minutes while the program's work stays the same
   (STEADINESS.md).  The probe is a fixed kernel of the benchmark's own
   made of the kinds of work the program does (allocating strings,
   hashing them into a table, list building, number formatting, balanced
   string-map updates and lookups), none of it the program's code, and
   of a walk through memory that is out of cache by the time it is
   walked again (an op that starts with a cold cache pays the same
   misses).  It runs between ops on a fixed op schedule, outside the op
   timers and the GC accounting, and its time tracks how fast the host
   runs at that moment.  An op's host-adjusted time is its measured time scaled by
   [probe_ref_ns] over the probe's time around it: the op's time on a
   host that runs the probe in [probe_ref_ns]. *)
module Probe = struct
  module Smap = Map.Make (String)

  (* one random cycle through 4 MB of slots (Sattolo's shuffle), outside
     the OCaml heap so that it does not count in heap_mb; each probe walks
     the next 4000 of them *)
  let next =
    let n = 1 lsl 19 in
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    for i = 0 to n - 1 do
      a.{i} <- i
    done;
    let rng = Random.State.make [| 7 |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng i in
      let t = a.{i} in
      a.{i} <- a.{j};
      a.{j} <- t
    done;
    a

  let at = ref 0

  (* ns; the kernel allocates about 130k words, half of a fresh default
     minor heap, so no collection falls inside the timed part *)
  let run () =
    Gc.minor ();
    let t0 = now () in
    let tbl = Hashtbl.create 16 in
    for i = 0 to 1999 do
      Hashtbl.replace tbl (string_of_int (i * 7919)) i
    done;
    let sum = List.fold_left ( + ) 0 (List.rev (List.init 2000 Fun.id)) in
    let b = Buffer.create 64 in
    for i = 0 to 300 do
      Buffer.add_string b (Printf.sprintf "%d:%s;" i (string_of_float (float_of_int i /. 7.)))
    done;
    let m = ref Smap.empty in
    for i = 0 to 999 do
      m := Smap.add (string_of_int (i * 31)) i !m
    done;
    let found = ref 0 in
    for i = 0 to 999 do
      if Smap.mem (string_of_int i) !m then incr found
    done;
    let j = ref !at in
    for _ = 1 to 4000 do
      j := next.{!j}
    done;
    at := !j;
    ignore (Sys.opaque_identity (Hashtbl.length tbl + sum + Buffer.length b + !found));
    now () - t0
end

let probe_ref_ns = 2_000_000.0

let median_of a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type cls = Read | Lookup | Write

let cls_name = function Read -> "read" | Lookup -> "lookup" | Write -> "write"

type req =
  | Stmt of EN.stmt  (** prepared transform *)
  | Transform of string * string  (** view, stylesheet text *)
  | Dml of string
  | Select of string
  | Store of X.node
  | Shred_run of int * string  (** docid, stylesheet text *)
  | Query of int * string  (** docid, XPath *)

type reply = Output of string list | Table of Xdb_sql.Engine.result | Docid of int

let engine_call options eng req =
  let out (r : EN.run_result) = (Output r.EN.output, r.EN.metrics) in
  match req with
  | Stmt s -> out (EN.transform_stmt ~options eng s)
  | Transform (view_name, stylesheet) -> out (EN.transform ~options eng ~view_name ~stylesheet)
  | Dml q | Select q -> (Table (EN.execute eng q), None)
  | Store doc -> (Docid (EN.store_shredded eng doc), None)
  | Shred_run (d, stylesheet) ->
      out (EN.run ~options eng (EN.Shredded (Some [ d ])) ~stylesheet)
  | Query (docid, xpath) -> (Output (EN.query_shredded eng ~docid xpath), None)

let submit sess req =
  SV.submit sess (fun eng -> fst (engine_call EN.default_run_options eng req))

(* ------------------------------------------------------------------ *)
(* Layer attribution of the traced run                                 *)
(* ------------------------------------------------------------------ *)

(* the span around the Engine call: verbs that report stage timings get
   "engine" (their self time is lock, revalidation and cache lookup);
   verbs that report none are named after the layer doing their work *)
let call_span = function
  | Stmt _ | Transform _ | Shred_run _ -> "engine"
  | Dml _ -> "sql.dml"
  | Select _ -> "sql.select"
  | Store _ -> "shred.store"
  | Query _ -> "shred.query"

(* sub-steps the public API runs without timing them, repeated beside
   the op to estimate their share (the shortest of [replay_repeats]
   repeats, so a collection inside one repeat does not count) *)
let replay_repeats = 3

let replays = function
  | Dml q | Select q -> [ ("sql.parse", fun () -> ignore (Xdb_sql.Parser.parse q)) ]
  | Shred_run (_, ss) ->
      let ast = ref None in
      [
        ("compile.parse", fun () -> ast := Some (Xdb_xslt.Parser.parse ss));
        ("compile.bytecode", fun () -> Option.iter (fun a -> ignore (Xdb_xslt.Compile.compile a)) !ast);
      ]
  | Stmt _ | Transform _ | Store _ | Query _ -> []

let is_opt_stage s = String.length s > 4 && String.sub s 0 4 = "opt_"

let stage_span ~work = function
  | ("parse" | "bytecode" | "schema" | "translate" | "sql_rewrite") as s -> "compile." ^ s
  | _ -> work

let traced_options = { EN.default_run_options with EN.collect_metrics = true }

(* span name -> per-layer metric it feeds *)
let layer_of_span = function
  | "op" -> "trace.unattributed_ms"
  | "server" -> "server.admit_ms"
  | "engine" -> "engine.self_ms"
  | "exec" -> "exec.ms"
  | "shred_vm" -> "shred_vm.ms"
  | s -> s ^ "_ms"

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* a set-up workload: what one pass needs *)
type env = {
  reqs : int -> (SV.session * req) array;  (** op i's requests, built outside the timer *)
  check : int -> reply array -> bool;  (** inline oracle, outside the timer *)
  oracle : int -> int * int * string;
      (** deferred oracle over the first [n] ops: (checked, wrong, coverage) *)
  engines : EN.t list;
  shred : Xdb_rel.Shred.t option;
  exec_views : (Xdb_rel.Database.t * Xdb_rel.Publish.view * string) list;
      (** the statements of one read, for per-page executor counts *)
  setup_layers : (string * float) list;  (** per-layer values measured at set-up *)
  close : unit -> unit;
}

type instance = {
  n : int;
  cls : int -> cls;
  probe_every : int;  (** ops between host-speed probes of an untraced pass *)
  setup : traced:bool -> env;
}

let stylesheet name = (Option.get (C.find name)).C.stylesheet

let serve db =
  let eng = EN.create db in
  let srv = SV.create eng in
  (eng, srv, SV.open_session srv)

let open_view (dv : D.dbview) =
  let eng, srv, sess = serve dv.D.db in
  EN.register_view eng dv.D.view;
  ignore (SV.execute sess "ANALYZE");
  (eng, srv, sess)

let close_all servers engines () =
  List.iter SV.shutdown servers;
  List.iter EN.shutdown engines

let affected n = function
  | [| Table { Xdb_sql.Engine.rows = [ [ V.Int m ] ]; _ } |] -> m = n
  | _ -> false

let outputs replies =
  Array.to_list (Array.map (function Output o -> o | Table _ | Docid _ -> []) replies)

(* [k] distinct sorted picks from [0, n) *)
let pick rng k n =
  let chosen = Hashtbl.create k in
  while Hashtbl.length chosen < min k n do
    Hashtbl.replace chosen (Random.State.int rng n) ()
  done;
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) chosen [])

(* the text node under each [row/<field>] of a records document, by id,
   and under each [region/item/amount] of a sales document, by region:
   the oracle documents replay writes by rewriting these in place *)
let element_children (n : X.node) = List.filter X.is_element n.X.children
let root_element doc = List.hd (element_children doc)

let field_text (row : X.node) field =
  let e = List.find (fun c -> X.local_name c = field) (element_children row) in
  List.hd e.X.children

let set_text (t : X.node) s = t.X.kind <- X.Text s

let text_of (t : X.node) = match t.X.kind with X.Text s -> s | _ -> ""

let records_texts doc rows field =
  let a = Array.make (rows + 1) (X.make (X.Text "")) in
  List.iter
    (fun row -> a.(int_of_string (text_of (field_text row "id"))) <- field_text row field)
    (element_children (root_element doc));
  a

let sales_amount_texts doc =
  Array.of_list
    (List.map
       (fun region ->
         List.filter_map
           (fun c -> if X.local_name c = "item" then Some (field_text c "amount") else None)
           (element_children region))
       (element_children (root_element doc)))

(* the functional XSLTVM over a document: what Pipeline.transform_functional
   runs, without the partial evaluation it is usually compiled with *)
let functional ss =
  let prog = Xdb_xslt.Compile.compile (Xdb_xslt.Parser.parse ss) in
  fun doc -> Xdb_xml.Serializer.node_list_to_string (Xdb_xslt.Vm.transform prog doc).X.children

let digest_outputs outs = Digest.string (String.concat "" (List.map Digest.string (List.concat outs)))

(* read pages per part compared with the functional VM over the full
   documents (each check runs the four reports over 16k and 16k rows) *)
let fig3_samples = 2

(* fig3-pages: report pages over changing data (paper Figure 3).  Cycle
   of six ops: two point writes (one per database), one page of the four
   prepared reports that must recompute, three identical pages served
   from the result cache. *)
let fig3_pages ~seed ~part ~seconds =
  let rows = 16_000 and regions = 800 and items = 20 in
  let cycles = max 1 (int_of_float (seconds *. 16.0)) in
  let n = 6 * cycles in
  let rng = Random.State.make [| seed; 3; part |] in
  let key = Array.make n 0 and value = Array.make n 0 in
  for c = 0 to cycles - 1 do
    key.(6 * c) <- 1 + Random.State.int rng rows;
    value.(6 * c) <- Random.State.int rng 10_000;
    key.((6 * c) + 1) <- Random.State.int rng regions;
    value.((6 * c) + 1) <- 1 + Random.State.int rng 500
  done;
  (* read pages checked against the functional VM *)
  let sampled = Array.make cycles false in
  List.iter (fun c -> sampled.(c) <- true) (pick rng fig3_samples cycles);
  let cls i = match i mod 6 with 0 | 1 -> Write | 2 -> Read | _ -> Lookup in
  let reports = [ ("records_vu", "avts"); ("records_vu", "metric"); ("sales_vu", "chart"); ("sales_vu", "total") ] in
  let setup ~traced:_ =
    let rdv = D.records_db rows and sdv = D.sales_db regions items in
    let er, srvr, sr = open_view rdv in
    let es, srvs, ss = open_view sdv in
    let page =
      Array.of_list
        (List.map
           (fun (view_name, name) ->
             let sess = if view_name = "records_vu" then sr else ss in
             (sess, Stmt (SV.prepare sess ~view_name ~stylesheet:(stylesheet name))))
           reports)
    in
    (* warm-up: the first page fills the result cache *)
    Array.iter (fun (sess, r) -> ignore (submit sess r)) page;
    let last_page = ref [] in
    let digests = Hashtbl.create 8 in
    let reqs i =
      match i mod 6 with
      | 0 ->
          [| (sr, Dml (Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" value.(i) key.(i))) |]
      | 1 ->
          [| (ss, Dml (Printf.sprintf "UPDATE item SET amount = %d WHERE rid = %d" value.(i) key.(i))) |]
      | _ -> page
    in
    let check i replies =
      match i mod 6 with
      | 0 -> affected 1 replies
      | 1 -> affected items replies
      | 2 ->
          last_page := outputs replies;
          if sampled.(i / 6) then Hashtbl.replace digests i (digest_outputs !last_page);
          List.for_all (fun o -> List.length o = 1) !last_page
      | _ -> outputs replies = !last_page
    in
    let oracle n_done =
      let rdoc = D.records_doc rows and sdoc = D.sales_doc regions items in
      let values = records_texts rdoc rows "value" and amounts = sales_amount_texts sdoc in
      let fns =
        List.map
          (fun (view_name, name) ->
            let f = functional (stylesheet name) in
            let doc = if view_name = "records_vu" then rdoc else sdoc in
            fun () -> f doc)
          reports
      in
      let checked = ref 0 and wrong = ref 0 in
      for i = 0 to n_done - 1 do
        match i mod 6 with
        | 0 -> set_text values.(key.(i)) (string_of_int value.(i))
        | 1 -> List.iter (fun t -> set_text t (string_of_int value.(i))) amounts.(key.(i))
        | _ -> (
            match Hashtbl.find_opt digests i with
            | Some d ->
                incr checked;
                if digest_outputs (List.map (fun f -> [ f () ]) fns) <> d then incr wrong
            | None -> ())
      done;
      ( !checked,
        !wrong,
        Printf.sprintf
          "functional XSLTVM on %d of %d read pages; every cached page equals its cycle's read page"
          !checked ((n_done + 3) / 6) )
    in
    {
      reqs;
      check;
      oracle;
      engines = [ er; es ];
      shred = None;
      exec_views =
        List.map
          (fun (view_name, name) ->
            let dv = if view_name = "records_vu" then rdv else sdv in
            (dv.D.db, dv.D.view, stylesheet name))
          reports;
      setup_layers = [];
      close = close_all [ srvr; srvs ] [ er; es ];
    }
  in
  { n; cls; probe_every = 6; setup }

(* adhoc-keyed: ad-hoc point lookups beside point writes.  Every read is
   fresh stylesheet text (a full compile plus one B-tree probe); 16k keys
   overflow the plan cache (64) and the result cache (256). *)
let adhoc_keyed ~seed ~part ~seconds =
  let rows = 16_000 in
  let n = max 10 (int_of_float (seconds *. 6_000.0)) in
  let rng = Random.State.make [| seed; 5; part |] in
  let kind = Array.make n Read and key = Array.make n 0 and value = Array.make n 0 in
  (* a lookup reads the key of the latest write, so every lookup checks
     that a write landed *)
  let last_write = ref 1 in
  for i = 0 to n - 1 do
    key.(i) <- 1 + Random.State.int rng rows;
    match Random.State.int rng 10 with
    | 0 ->
        kind.(i) <- Write;
        value.(i) <- Random.State.int rng 10_000;
        last_write := key.(i)
    | 1 ->
        kind.(i) <- Lookup;
        key.(i) <- !last_write
    | _ -> ()
  done;
  let setup ~traced:_ =
    let dv = D.records_db rows in
    let eng, srv, sess = open_view dv in
    (* warm-up: a few reads and a lookup on fixed keys *)
    List.iter
      (fun k ->
        ignore (submit sess (Transform ("records_vu", C.dbonerow_stylesheet k)));
        ignore (submit sess (Select (Printf.sprintf "SELECT name, value FROM rows WHERE id = %d" k))))
      [ 1; 4_001; 8_001; 12_001 ];
    let observed = Array.make n (-1) and observed_name = Array.make n "" in
    let read_out = Array.make n "" in
    let reqs i =
      let k = key.(i) in
      match kind.(i) with
      | Read -> [| (sess, Transform ("records_vu", C.dbonerow_stylesheet k)) |]
      | Lookup -> [| (sess, Select (Printf.sprintf "SELECT name, value FROM rows WHERE id = %d" k)) |]
      | Write -> [| (sess, Dml (Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" value.(i) k)) |]
    in
    let check i replies =
      match (kind.(i), replies) with
      | Write, _ -> affected 1 replies
      | Lookup, [| Table { Xdb_sql.Engine.rows = [ [ V.Str name; V.Int v ] ]; _ } |] ->
          observed.(i) <- v;
          observed_name.(i) <- name;
          true
      | Lookup, _ -> false
      | Read, [| Output [ o ] |] ->
          read_out.(i) <- o;
          true
      | Read, _ -> false
    in
    (* a read's output depends only on row k (ids are unique), so the
       functional VM runs over a document holding just the replayed row *)
    let oracle n_done =
      let doc = D.records_doc rows in
      let values = records_texts doc rows "value" and names = records_texts doc rows "name" in
      let categories = records_texts doc rows "category" in
      let one_row k =
        let field f t = B.elem f [ B.text (text_of t) ] in
        B.document
          (B.elem "table"
             [
               B.elem "row"
                 [
                   B.elem "id" [ B.text (string_of_int k) ];
                   field "name" names.(k);
                   field "value" values.(k);
                   field "category" categories.(k);
                 ];
             ])
      in
      let checked = ref 0 and wrong = ref 0 and reads = ref 0 and lookups = ref 0 in
      for i = 0 to n_done - 1 do
        match kind.(i) with
        | Write -> set_text values.(key.(i)) (string_of_int value.(i))
        | Lookup ->
            incr lookups;
            incr checked;
            if
              string_of_int observed.(i) <> text_of values.(key.(i))
              || observed_name.(i) <> text_of names.(key.(i))
            then incr wrong
        | Read ->
            incr reads;
            incr checked;
            if functional (C.dbonerow_stylesheet key.(i)) (one_row key.(i)) <> read_out.(i) then
              incr wrong
      done;
      ( !checked,
        !wrong,
        Printf.sprintf
          "functional XSLTVM on all %d reads (over the replayed row); all %d lookups against the \
           replayed document"
          !reads !lookups )
    in
    {
      reqs;
      check;
      oracle;
      engines = [ eng ];
      shred = None;
      exec_views = [ (dv.D.db, dv.D.view, C.dbonerow_stylesheet key.(0)) ];
      setup_layers = [];
      close = close_all [ srv ] [ eng ];
    }
  in
  { n; cls = (fun i -> kind.(i)); probe_every = 400; setup }

(* shred-docs: stored XML documents.  Cycle of 25 ops: store a new
   50-row document, then alternate 12 shredded transforms with 12 XPath
   point queries over the 32 documents stored at set-up (400 rows each).
   Transforms take those documents round-robin, so none repeats between
   two writes and each one recomputes; the stored 50-row documents only
   grow the store. *)
let shred_docs ~seed ~part ~seconds =
  let docs = 32 and rows = 400 in
  let cycles = max 1 (int_of_float (seconds *. 18.0)) in
  let n = 25 * cycles in
  let rng = Random.State.make [| seed; 7; part |] in
  let doc_of = Array.make n 0 and key = Array.make n 0 in
  let reads = ref 0 in
  let cls i =
    let pos = i mod 25 in
    if pos = 0 then Write else if pos mod 2 = 1 then Read else Lookup
  in
  for i = 0 to n - 1 do
    match cls i with
    | Write -> ()
    | Read ->
        doc_of.(i) <- (!reads mod docs) + 1;
        incr reads
    | Lookup ->
        doc_of.(i) <- 1 + Random.State.int rng docs;
        key.(i) <- 1 + Random.State.int rng rows
  done;
  let metric = stylesheet "metric" in
  let xpath k = Printf.sprintf "/table/row[id='%d']/following-sibling::row[1]/name" k in
  (* oracle: the original document, outside set-up *)
  let odoc = D.records_doc rows in
  let expected_metric = functional metric odoc in
  let answers = Hashtbl.create 512 in
  let answer k =
    match Hashtbl.find_opt answers k with
    | Some a -> a
    | None ->
        let ctx = Xdb_xpath.Eval.make_context odoc in
        let a = List.map Xdb_xml.Serializer.to_string (Xdb_xpath.Eval.select ctx (xpath k)) in
        Hashtbl.replace answers k a;
        a
  in
  let setup ~traced =
    let eng, srv, sess = serve (Xdb_rel.Database.create ()) in
    let doc = D.records_doc rows and small = D.records_doc 50 in
    let live () =
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words
    in
    let live0 = if traced then live () else 0 in
    for _ = 1 to docs do
      ignore (submit sess (Store doc))
    done;
    let store = EN.shred_store eng in
    let setup_layers =
      if traced then
        let nodes = snd (Xdb_rel.Shred.stats store) in
        [ ("shred.heap_bytes_per_node", float_of_int ((live () - live0) * 8) /. float_of_int nodes) ]
      else []
    in
    ignore (submit sess (Shred_run (1, metric)));
    ignore (submit sess (Query (1, xpath 1)));
    let reqs i =
      match cls i with
      | Write -> [| (sess, Store small) |]
      | Read -> [| (sess, Shred_run (doc_of.(i), metric)) |]
      | Lookup -> [| (sess, Query (doc_of.(i), xpath key.(i))) |]
    in
    let check i replies =
      match (cls i, replies) with
      | Write, [| Docid d |] -> d = docs + (i / 25) + 1
      | Read, [| Output o |] -> o = [ expected_metric ]
      | Lookup, [| Output o |] -> o = answer key.(i)
      | _ -> false
    in
    {
      reqs;
      check;
      oracle =
        (fun n_done ->
          ( 0,
            0,
            Printf.sprintf
              "all %d ops inline: transforms against the functional VM, queries against the DOM XPath evaluator"
              n_done ));
      engines = [ eng ];
      shred = Some store;
      exec_views = [];
      setup_layers;
      close = close_all [ srv ] [ eng ];
    }
  in
  { n; cls; probe_every = 25; setup }

let workloads = [ ("fig3-pages", fig3_pages); ("adhoc-keyed", adhoc_keyed); ("shred-docs", shred_docs) ]

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

type pass = {
  lat : int array;  (** ns per op; -1 when it failed or did not run *)
  mutable ran : int;
  mutable failed : int;
  mutable wrong : int;
  mutable alloc_words : float;
  mutable minor : int;
  mutable major : int;
  mutable fallback_docs : int;
  mutable shred_compiles : int;
  mutable replays_cut : int;  (** replayed sub-steps cut to their call's remaining time *)
  spans : Span.t option;
  probes : int array;
      (** host-speed probe times (ns): probe j ran before op [j * probe_every], the
          last one after the pass; empty when the pass does not probe *)
}

let traced_call sp root i sess req pending =
  let s = Span.open_ sp ~name:"server" ~parent:root ~req:i ~start:(now ()) in
  let reply, m, e =
    SV.submit sess (fun eng ->
        let e = Span.open_ sp ~name:(call_span req) ~parent:s ~req:i ~start:(now ()) in
        let reply, m = engine_call traced_options eng req in
        Span.close sp e ~stop:(now ());
        (reply, m, e))
  in
  Span.close sp s ~stop:(now ());
  pending := (e, req, m) :: !pending;
  reply

(* after the op's timer stopped: stage spans from the engine's metrics,
   then the replayed sub-steps *)
let attribute p sp (e, req, m) =
  (match m with
  | None -> ()
  | Some m ->
      let work = match req with Shred_run _ -> "shred_vm" | _ -> "exec" in
      let ns ms = int_of_float (ms *. 1e6) in
      let stages = MT.stages m in
      let rewrite = ref e in
      List.iter
        (fun (name, ms) ->
          if not (is_opt_stage name) then begin
            let c = Span.child sp ~kind:Span.Stage ~name:(stage_span ~work name) ~parent:e ~dur_ns:(ns ms) in
            if name = "sql_rewrite" then rewrite := c
          end)
        stages;
      List.iter
        (fun (name, ms) ->
          if is_opt_stage name then
            ignore (Span.child sp ~kind:Span.Stage ~name:"compile.opt" ~parent:!rewrite ~dur_ns:(ns ms)))
        stages;
      p.fallback_docs <-
        p.fallback_docs + Option.value ~default:0 (List.assoc_opt "shred_vm_fallback_docs" (MT.counters m)));
  List.iter
    (fun (name, f) ->
      let best = ref max_int in
      for _ = 1 to replay_repeats do
        let t0 = now () in
        f ();
        best := min !best (now () - t0)
      done;
      (* an estimate: cut to what the call has left, counted *)
      let room = max 0 (Span.room sp e) in
      if !best > room then p.replays_cut <- p.replays_cut + 1;
      ignore (Span.child sp ~kind:Span.Replay ~name ~parent:e ~dur_ns:(min !best room)))
    (replays req);
  match req with Shred_run _ -> p.shred_compiles <- p.shred_compiles + 1 | _ -> ()

let run_pass ?(limit = max_int) ?(probe = false) inst env ~traced =
  let n = min limit inst.n in
  let p =
    {
      lat = Array.make inst.n (-1);
      ran = 0;
      failed = 0;
      wrong = 0;
      alloc_words = 0.0;
      minor = 0;
      major = 0;
      fallback_docs = 0;
      shred_compiles = 0;
      replays_cut = 0;
      spans = (if traced then Some (Span.create ()) else None);
      probes = (if probe then Array.make (((n - 1) / inst.probe_every) + 2) 0 else [||]);
    }
  in
  (* the set-up's garbage is collected before the first op, so that no
     timed op pays for it *)
  Gc.full_major ();
  for i0 = 0 to n - 1 do
    if probe && i0 mod inst.probe_every = 0 then p.probes.(i0 / inst.probe_every) <- Probe.run ();
    let reqs = env.reqs i0 in
    let replies = Array.make (Array.length reqs) (Docid 0) in
    let pending = ref [] in
    let root = ref (-1) in
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let ok =
      try
        (match p.spans with
        | None -> Array.iteri (fun j (sess, r) -> replies.(j) <- submit sess r) reqs
        | Some sp ->
            root := Span.open_ sp ~name:"op" ~parent:(-1) ~req:i0 ~start:t0;
            Array.iteri (fun j (sess, r) -> replies.(j) <- traced_call sp !root i0 sess r pending) reqs);
        true
      with e ->
        if p.failed < 3 then Printf.eprintf "op %d failed: %s\n%!" i0 (Printexc.to_string e);
        false
    in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    p.alloc_words <-
      p.alloc_words +. (g1.Gc.minor_words -. g0.Gc.minor_words)
      +. (g1.Gc.major_words -. g0.Gc.major_words)
      -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    p.minor <- p.minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
    p.major <- p.major + g1.Gc.major_collections - g0.Gc.major_collections;
    (match p.spans with
    | Some sp ->
        (* the root span ends where the op's timer stopped *)
        if !root >= 0 then Span.close sp !root ~stop:t1;
        List.iter (attribute p sp) (List.rev !pending);
        Span.settle sp
    | None -> ());
    if ok then begin
      p.lat.(i0) <- t1 - t0;
      if not (env.check i0 replies) then begin
        if p.wrong < 3 then Printf.eprintf "op %d: output differs from the oracle\n%!" i0;
        p.wrong <- p.wrong + 1
      end
    end
    else p.failed <- p.failed + 1;
    p.ran <- p.ran + 1
  done;
  if probe then p.probes.(Array.length p.probes - 1) <- Probe.run ();
  p

(* host-adjusted ns per op (nan where the op failed): the op's time
   scaled by [probe_ref_ns] over the median of the four probes around its
   interval (the two that bound it and one on either side) *)
let adjusted inst p =
  let m = Array.length p.probes in
  Array.mapi
    (fun i ns ->
      if ns < 0 then Float.nan
      else
        let k = i / inst.probe_every in
        let lo = max 0 (k - 1) and hi = min (m - 1) (k + 2) in
        let near = Array.init (hi - lo + 1) (fun j -> float_of_int p.probes.(lo + j)) in
        float_of_int ns *. probe_ref_ns /. median_of near)
    p.lat

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* per-op ns as measured, nan where the op failed *)
let raw p = Array.map (fun ns -> if ns < 0 then Float.nan else float_of_int ns) p.lat

(* sorted ms of the class's completed ops, from per-op ns *)
let class_latencies inst lat c =
  let l = ref [] in
  Array.iteri (fun i ns -> if Float.is_finite ns && inst.cls i = c then l := (ns /. 1e6) :: !l) lat;
  let a = Array.of_list !l in
  Array.sort compare a;
  a

(* completed ops per second inside ops, over the first [upto] ops *)
let throughput ?(upto = max_int) lat =
  let ok = ref 0 and busy = ref 0.0 in
  Array.iteri
    (fun i ns ->
      if i < upto && Float.is_finite ns then begin
        incr ok;
        busy := !busy +. ns
      end)
    lat;
  float_of_int !ok /. (!busy /. 1e9)

let per_req p x = x /. float_of_int (max 1 p.ran)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let counter_sum f engines name =
  List.fold_left (fun acc e -> acc + Option.value ~default:0 (List.assoc_opt name (f e))) 0 engines

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* per-page executor counts: each statement of one read, re-run through
   the instrumented rewrite path on the final data *)
let exec_counts env =
  let probes = ref 0 and examined = ref 0 and out = ref 0 and alloc = ref 0.0 in
  List.iter
    (fun (db, view, ss) ->
      let comp = PL.compile db view ss in
      let g0 = Gc.quick_stat () in
      ignore (PL.run_rewrite db comp);
      let g1 = Gc.quick_stat () in
      alloc :=
        !alloc
        +. (8.0
           *. (g1.Gc.minor_words -. g0.Gc.minor_words +. g1.Gc.major_words -. g0.Gc.major_words
             -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)));
      match PL.run_rewrite_analyzed db comp with
      | _, Some st ->
          out := !out + Xdb_rel.Stats.root_rows st;
          List.iter
            (fun (e : Xdb_rel.Stats.entry) ->
              probes := !probes + e.Xdb_rel.Stats.op.Xdb_rel.Stats.btree_probes;
              examined := !examined + e.Xdb_rel.Stats.op.Xdb_rel.Stats.heap_rows)
            (Xdb_rel.Stats.entries st)
      | _, None -> ())
    env.exec_views;
  [
    ("exec.rows_examined", "count", float_of_int !examined);
    ("exec.rows_out", "count", float_of_int !out);
    ("exec.btree_probes", "count", float_of_int !probes);
    ("exec.alloc_mb", "MB", !alloc /. 1e6);
  ]

let layer_time_names =
  [
    "server.admit_ms"; "engine.self_ms"; "compile.parse_ms"; "compile.bytecode_ms";
    "compile.schema_ms"; "compile.translate_ms"; "compile.sql_rewrite_ms"; "compile.opt_ms";
    "exec.ms"; "sql.parse_ms"; "sql.dml_ms"; "sql.select_ms"; "shred_vm.ms"; "shred.query_ms";
    "shred.store_ms"; "trace.unattributed_ms";
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* a value that is not a finite number (an empty class's percentile)
   prints as null and makes the result incorrect *)
let json_metric (name, unit, v) =
  Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
    (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
    unit

let print_result ?(extra = "") ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then
    Printf.printf "  not finite: %s\n"
      (String.concat ", "
         (List.filter_map (fun (n, _, v) -> if Float.is_finite v then None else Some n) metrics));
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}%s}|}
    (correct && finite) attempted failed
    (String.concat ", " (List.map json_metric metrics))
    extra;
  print_newline ()

(* set-up seconds as measured, and host-adjusted by the median of three
   probes before and three after it when [probe] *)
let timed_setup ?(probe = false) inst ~traced =
  let probes () = if probe then List.init 3 (fun _ -> float_of_int (Probe.run ())) else [] in
  Gc.full_major ();
  let before = probes () in
  let t0 = now () in
  let env = inst.setup ~traced in
  let dt = float_of_int (now () - t0) /. 1e9 in
  let around = Array.of_list (before @ probes ()) in
  let adj = if probe then dt *. probe_ref_ns /. median_of around else dt in
  (env, dt, adj)

let summary ?adjusted inst p ~oracle_note ~wrong =
  List.iter
    (fun c ->
      let a = class_latencies inst (raw p) c in
      Printf.printf "  %-7s n=%-6d p50=%.4fms p90=%.4fms" (cls_name c) (Array.length a)
        (percentile a 0.5) (percentile a 0.9);
      Option.iter
        (fun adj ->
          let b = class_latencies inst adj c in
          Printf.printf "  host-adjusted p50=%.4fms p90=%.4fms" (percentile b 0.5) (percentile b 0.9))
        adjusted;
      print_newline ())
    [ Read; Lookup; Write ];
  if Array.length p.probes > 0 then begin
    let pr = Array.map float_of_int p.probes in
    Array.sort compare pr;
    Printf.printf "  host-speed probe: %d runs, min %.3fms median %.3fms max %.3fms (reference %.3fms)\n"
      (Array.length pr) (pr.(0) /. 1e6) (median_of pr /. 1e6)
      (pr.(Array.length pr - 1) /. 1e6)
      (probe_ref_ns /. 1e6)
  end;
  Printf.printf "  ops %d failed %d wrong %d error_share %.6f\n" p.ran p.failed wrong
    (ratio (p.failed + wrong) (max 1 p.ran));
  Printf.printf "  oracle: %s\n" oracle_note

(* timed set-ups per process; the last one serves the pass *)
let setups = 3

let run_untraced_metrics name inst =
  let times = ref [] and env = ref None in
  for k = 1 to setups do
    Option.iter (fun e -> e.close ()) !env;
    env := None;
    let e, dt, adj = timed_setup ~probe:true inst ~traced:false in
    times := (dt, adj) :: !times;
    if k = setups then env := Some e else e.close ()
  done;
  let times = List.rev !times in
  let env = Option.get !env in
  let p = run_pass ~probe:true inst env ~traced:false in
  let adj = adjusted inst p in
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6 in
  env.close ();
  let checked, wrong, note = env.oracle p.ran in
  let wrong = p.wrong + wrong in
  Printf.printf "%s  (untraced, %d ops, %d deferred checks)\n" name p.ran checked;
  summary ~adjusted:adj inst p ~oracle_note:note ~wrong;
  Printf.printf "  as measured: throughput %.4f/s, set-up %.6fs; host-adjusted: throughput %.4f/s, set-up %.6fs\n"
    (throughput (raw p))
    (median (List.map fst times))
    (throughput adj)
    (median (List.map snd times));
  let lat c q = percentile (class_latencies inst adj c) q in
  let metrics =
    [
      ("throughput_rps", "1/s", throughput adj);
      ("read_p50_ms", "ms", lat Read 0.5);
      ("read_p90_ms", "ms", lat Read 0.9);
      ("lookup_p50_ms", "ms", lat Lookup 0.5);
      ("lookup_p90_ms", "ms", lat Lookup 0.9);
      ("write_p50_ms", "ms", lat Write 0.5);
      ("write_p90_ms", "ms", lat Write 0.9);
      ("alloc_mb_per_req", "MB", per_req p (p.alloc_words *. 8.0 /. 1e6));
      ("heap_mb", "MB", heap_mb);
      ("setup_s", "s", median (List.map snd times));
    ]
  in
  (* set-up times and per-op ns, host-adjusted and as measured, for run.py
     to pool over parts *)
  let class_ns lat c =
    let l = ref [] in
    Array.iteri
      (fun i ns -> if Float.is_finite ns && inst.cls i = c then l := Printf.sprintf "%.0f" ns :: !l)
      lat;
    Printf.sprintf {|"%s": [%s]|} (cls_name c) (String.concat ", " (List.rev !l))
  in
  let seconds l = String.concat ", " (List.map (Printf.sprintf "%.17g") l) in
  let classes lat = String.concat ", " (List.map (class_ns lat) [ Read; Lookup; Write ]) in
  print_result
    ~extra:
      (Printf.sprintf
         {|, "setup_times": [%s], "raw_setup_times": [%s], "latencies_ns": {%s}, "raw_latencies_ns": {%s}|}
         (seconds (List.map snd times))
         (seconds (List.map fst times))
         (classes adj) (classes (raw p)))
    ~correct:(p.failed = 0 && wrong = 0) ~attempted:p.ran ~failed:p.failed metrics

let run_traced_metrics name ~part inst =
  (* untraced pass over the first quarter of the sequence: the throughput
     the tracing overhead is relative to *)
  let quarter = max 1 (inst.n / 4) in
  let env0, _, _ = timed_setup inst ~traced:false in
  let p0 = run_pass ~limit:quarter inst env0 ~traced:false in
  env0.close ();
  let env, _, _ = timed_setup inst ~traced:true in
  let reg name = counter_sum EN.registry_counters env.engines name in
  let rc name = counter_sum EN.result_cache_counters env.engines name in
  let shred_counts () =
    match env.shred with
    | Some s ->
        let c = Xdb_rel.Shred.counters s in
        (c.Xdb_rel.Shred.batch_steps, c.Xdb_rel.Shred.rel_steps, c.Xdb_rel.Shred.dom_fallbacks)
    | None -> (0, 0, 0)
  in
  let reg_names = [ "cache_hits"; "cache_misses"; "cache_stale"; "recompilations"; "cache_evictions" ] in
  let rc_names = [ "result_cache_hits"; "result_cache_misses"; "result_cache_invalidations"; "result_cache_evictions" ] in
  let reg0 = List.map reg reg_names and rc0 = List.map rc rc_names and sh0 = shred_counts () in
  let p = run_pass inst env ~traced:true in
  let d0 l0 f names = List.map2 (fun n v0 -> (n, f n - v0)) names l0 in
  let regd = d0 reg0 reg reg_names and rcd = d0 rc0 rc rc_names in
  let b1, r1, f1 = shred_counts () and b0, r0, f0 = sh0 in
  let entries = List.fold_left (fun acc e -> acc + EN.result_cache_size e) 0 env.engines in
  let nodes = match env.shred with Some s -> snd (Xdb_rel.Shred.stats s) | None -> 0 in
  let exec = exec_counts env in
  env.close ();
  let checked, wrong, note = env.oracle p.ran in
  let wrong = p.wrong + wrong + p0.wrong in
  let sp = Option.get p.spans in
  let self = Span.self_by_name sp in
  let layer_ns = Hashtbl.create 32 in
  List.iter
    (fun (span, ns) ->
      let l = layer_of_span span in
      Hashtbl.replace layer_ns l (ns + Option.value ~default:0 (Hashtbl.find_opt layer_ns l)))
    self;
  let layer l = per_req p (ms_of_ns (Option.value ~default:0 (Hashtbl.find_opt layer_ns l))) in
  let unknown = Hashtbl.fold (fun l _ acc -> if List.mem l layer_time_names then acc else l :: acc) layer_ns [] in
  let e2e_ms = per_req p (ms_of_ns (Span.root_total sp)) in
  let layers_sum = List.fold_left (fun acc l -> acc +. layer l) 0.0 layer_time_names in
  (* self times add up to the root spans by construction once every span
     maps to a layer; what can go wrong is a stage child, timed by the
     engine's own clock, longer than the call it is placed in, which would
     leave a negative self time (replays are cut to fit, see [attribute]) *)
  let sums = unknown = [] && Float.abs (layers_sum -. e2e_ms) <= 1e-9 *. Float.max 1.0 e2e_ms in
  let overdrawn = Span.overdrawn sp in
  if not sums then
    Printf.eprintf "layer self times do not sum to end-to-end time (unmapped spans: %s)\n%!"
      (String.concat ", " unknown);
  if overdrawn <> [] then
    Printf.eprintf "spans whose children outlast them: %s\n%!"
      (String.concat ", " (List.map (fun (n, k) -> Printf.sprintf "%s x%d" n k) overdrawn));
  (try Sys.mkdir ".perfbench-out" 0o755 with Sys_error _ -> ());
  Span.write sp (Printf.sprintf ".perfbench-out/spans-%s-%d.tsv" name part);
  let compile_ms =
    List.fold_left
      (fun acc s -> acc +. layer ("compile." ^ s ^ "_ms"))
      0.0 [ "parse"; "bytecode"; "schema"; "translate"; "sql_rewrite"; "opt" ]
  in
  let g = List.assoc in
  Printf.printf "%s  (traced, %d ops, %d spans, %d deferred checks)\n" name p.ran (Span.count sp) checked;
  summary inst p ~oracle_note:note ~wrong;
  Printf.printf
    "  layers sum to end-to-end: %b (%.6f ms/op); no negative self time: %b; replays cut to fit: %d\n"
    sums e2e_ms (overdrawn = []) p.replays_cut;
  let metrics =
    List.map (fun l -> (l, "ms", layer l)) layer_time_names
    @ [
        ("compile.ms", "ms", compile_ms);
        ("compile.per_req", "count", per_req p (float_of_int (g "recompilations" regd + p.shred_compiles)));
        ( "plan_cache.hit_ratio", "ratio",
          ratio (g "cache_hits" regd) (g "cache_hits" regd + g "cache_misses" regd + g "cache_stale" regd) );
        ("plan_cache.evictions", "count", float_of_int (g "cache_evictions" regd));
        ( "result_cache.hit_ratio", "ratio",
          ratio (g "result_cache_hits" rcd) (g "result_cache_hits" rcd + g "result_cache_misses" rcd) );
        ("result_cache.invalidations", "count", float_of_int (g "result_cache_invalidations" rcd));
        ("result_cache.evictions", "count", float_of_int (g "result_cache_evictions" rcd));
        ("result_cache.entries", "count", float_of_int entries);
      ]
    @ exec
    @ [
        ("shred.batch_steps", "count", float_of_int (b1 - b0));
        ("shred.rel_steps", "count", float_of_int (r1 - r0));
        ("shred.dom_fallbacks", "count", float_of_int (f1 - f0));
        ("shred.nodes", "count", float_of_int nodes);
        ("shred_vm.fallback_docs", "count", float_of_int p.fallback_docs);
        ( "shred.heap_bytes_per_node", "bytes",
          Option.value ~default:0.0 (List.assoc_opt "shred.heap_bytes_per_node" env.setup_layers) );
        ("gc.minor_per_req", "count", per_req p (float_of_int p.minor));
        ("gc.major_per_req", "count", per_req p (float_of_int p.major));
        ("trace.e2e_ms", "ms", e2e_ms);
        ("trace.overhead_pct", "%", ((throughput (raw p0) /. throughput ~upto:quarter (raw p)) -. 1.0) *. 100.0);
        ("trace.spans", "count", float_of_int (Span.count sp));
      ]
  in
  print_result
    ~correct:(p.failed = 0 && p0.failed = 0 && wrong = 0 && sums && overdrawn = [])
    ~attempted:(p0.ran + p.ran) ~failed:(p0.failed + p.failed) metrics

let () =
  let workload = ref "" and seed = ref 1 and part = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  fig3-pages | adhoc-keyed | shred-docs");
      ("--seed", Arg.Set_int seed, "N  op-sequence seed");
      ("--part", Arg.Set_int part, "J  which part of the seed's sequence (default 0)");
      ("--seconds", Arg.Set_float seconds, "S  part length (the op count is S times the workload's rate)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xbench --workload NAME --seed N --part J --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some make ->
      let inst = make ~seed:!seed ~part:!part ~seconds:!seconds in
      if !trace = 0 then run_untraced_metrics !workload inst
      else run_traced_metrics !workload ~part:!part inst
