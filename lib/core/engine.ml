(* The Xdb.Engine facade: Registry + Result_cache + Pipeline + Parallel +
   the SQL surface behind create/prepare/run/execute with one run_options
   record.  All errors leave through Xdb_error.Error (see engine.mli). *)

module P = Xdb_rel.Publish

(* ------------------------------------------------------------------ *)
(* Reader/writer lock                                                  *)
(* ------------------------------------------------------------------ *)

(* DML serialization: reads (transform/publish/selects) share the lock,
   writes (DML/ANALYZE/CREATE VIEW/view registration/shredding) exclude
   everything.  This is what makes result-cache version capture sound:
   within a read no dependency table's data version can move between
   computing output and storing it, or while a prepared statement
   checks its held entry.  No writer preference — the write mix this
   serves is a few percent, so reader starvation of writers is bounded
   in practice (rwbench measures exactly this mix).  The bodies run
   under a plain [match ... with exception], so neither side allocates
   a closure of its own. *)
module Rw = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;
  }

  let create () = { m = Mutex.create (); c = Condition.create (); readers = 0; writer = false }

  let leave_read t =
    Mutex.lock t.m;
    t.readers <- t.readers - 1;
    if t.readers = 0 then Condition.broadcast t.c;
    Mutex.unlock t.m

  let leave_write t =
    Mutex.lock t.m;
    t.writer <- false;
    Condition.broadcast t.c;
    Mutex.unlock t.m

  (* run [f], then [leave t] whether it returned or raised *)
  let body t leave f =
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        leave t;
        Printexc.raise_with_backtrace e bt

  let read t f =
    Mutex.lock t.m;
    while t.writer do
      Condition.wait t.c t.m
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m;
    body t leave_read f

  let write t f =
    Mutex.lock t.m;
    while t.writer || t.readers > 0 do
      Condition.wait t.c t.m
    done;
    t.writer <- true;
    Mutex.unlock t.m;
    body t leave_write f
end

type run_options = { jobs : int; collect_metrics : bool; result_cache : bool; indent : bool }

let default_run_options = { jobs = 1; collect_metrics = false; result_cache = true; indent = false }

type run_result = { output : string list; metrics : Metrics.t option }

type source = View of string | Shredded of int list option

type t = {
  db : Xdb_rel.Database.t;
  registry : Registry.t;
  rc : Result_cache.t;
  options : Options.t;
  rw : Rw.t;
  pool_lock : Mutex.t;
      (** held for the whole of every pool use, not just creation: a
          concurrent caller asking for a different [jobs] must not shut
          the cached pool down under a run still draining it *)
  mutable pool : Parallel.t option;  (** created lazily on first jobs > 1 run *)
  shred : Xdb_rel.Shred.t;
      (** the engine's shred store: beside the catalog, not in it, so its
          writes are versioned under [shred_dep] *)
  sql_lock : Mutex.t;  (** guards [xslt_views] *)
  mutable xslt_views : Sql_front.xslt_view list;
}

let create ?capacity ?result_capacity ?(options = Options.default) db =
  {
    db;
    registry = Registry.create ?capacity db;
    rc = Result_cache.create ?capacity:result_capacity db;
    options;
    rw = Rw.create ();
    pool_lock = Mutex.create ();
    pool = None;
    shred = Xdb_rel.Shred.create ();
    sql_lock = Mutex.create ();
    xslt_views = [];
  }

let database t = t.db

let register_view t view =
  (* exclusive: evolution must not race in-flight reads, and the view's
     cached results are invalid even though no data version moved *)
  Rw.write t.rw (fun () ->
      Registry.register_view t.registry view;
      Result_cache.invalidate_view t.rc view.P.view_name)

(* Run [f] over the pool matching [jobs], reusing the cached one when
   its size fits; a size change joins the old pool and spawns a fresh
   one.  The lock is held for the whole of [f]: concurrent callers
   serialize their parallel phases (the pool runs one batch at a time
   anyway), and — critically — a caller asking for a different [jobs]
   cannot shut the cached pool down under a run that is still using it. *)
let use_pool t jobs f =
  Mutex.lock t.pool_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.pool_lock)
    (fun () ->
      let pool =
        match t.pool with
        | Some p when Parallel.jobs p = jobs -> p
        | existing ->
            (match existing with Some p -> Parallel.shutdown p | None -> ());
            let p = Parallel.create ~jobs in
            t.pool <- Some p;
            p
      in
      f pool)

(* [f (Some pool)] over the engine's pool when [jobs > 1], [f None]
   otherwise: [jobs] sizes the pool and never picks a code path *)
let with_jobs t options f =
  if options.jobs > 1 then use_pool t options.jobs (fun pool -> f (Some pool)) else f None

let shutdown t =
  Mutex.lock t.pool_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.pool_lock)
    (fun () ->
      match t.pool with
      | None -> ()
      | Some p ->
          Parallel.shutdown p;
          t.pool <- None)

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                 *)
(* ------------------------------------------------------------------ *)

(* key ingredients: view + stylesheet text.  [jobs] is deliberately
   absent — a split run is byte-identical to the sequential one (tested),
   so they may share entries. *)
let transform_key view_name stylesheet = "T\x00" ^ view_name ^ "\x00" ^ stylesheet

(* a statement's compiled form with the versions it was compiled at *)
type compiled_at = { stats : int; views : int; compiled : Pipeline.compiled }

type stmt = {
  st_view : string;
  st_stylesheet : string;
  st_key : string;  (** its result-cache key, {!transform_key} *)
  st_lock : Mutex.t;  (** serializes recompiles *)
  st_compiled : compiled_at Atomic.t;
  st_slot : Result_cache.slot;  (** the result-cache entry it was last served from *)
}

let compile_view ?metrics t ~view_name ~stylesheet =
  Xdb_error.wrap ~stage:"compile" (fun () ->
      Registry.compile ~options:t.options ?metrics t.registry ~view_name ~stylesheet)

let compiled_now ?metrics t ~view_name ~stylesheet =
  let stats = Xdb_rel.Database.stats_version t.db in
  let views = Registry.views_version t.registry in
  { stats; views; compiled = compile_view ?metrics t ~view_name ~stylesheet }

let prepare ?metrics t ~view_name ~stylesheet =
  Rw.read t.rw (fun () ->
      {
        st_view = view_name;
        st_stylesheet = stylesheet;
        st_key = transform_key view_name stylesheet;
        st_lock = Mutex.create ();
        st_compiled = Atomic.make (compiled_now ?metrics t ~view_name ~stylesheet);
        st_slot = Result_cache.slot ();
      })

(* The hot path of a prepared statement: one atomic read and two integer
   compares.  Only when ANALYZE or a view (re)registration moved a
   version does the statement take its lock and go back through the
   registry (which itself re-fingerprints and serves its cache when the
   statement's own view is unaffected). *)
let current t c =
  c.stats = Xdb_rel.Database.stats_version t.db && c.views = Registry.views_version t.registry

let stmt_compiled ?metrics t stmt =
  let c = Atomic.get stmt.st_compiled in
  if current t c then c.compiled
  else
    Mutex.protect stmt.st_lock (fun () ->
        let c = Atomic.get stmt.st_compiled in
        if current t c then c.compiled
        else
          let c = compiled_now ?metrics t ~view_name:stmt.st_view ~stylesheet:stmt.st_stylesheet in
          Atomic.set stmt.st_compiled c;
          c.compiled)

let stmt_view stmt = stmt.st_view

(* ------------------------------------------------------------------ *)
(* Result cache wiring                                                 *)
(* ------------------------------------------------------------------ *)

let metrics_of opts = if opts.collect_metrics then Some (Metrics.create ()) else None

let staged metrics name f = match metrics with None -> f () | Some m -> Metrics.time m name f

let stamp_outcome metrics ~hit ~patched =
  match metrics with
  | None -> ()
  | Some m ->
      Metrics.set_counter m "result_cache_hit" (if hit then 1 else 0);
      Metrics.set_counter m "result_cache_patched" (if patched then 1 else 0)

(* serve from the result cache when enabled; recompute-and-store
   otherwise.  [run ~record] returns the output and, when asked to and
   its run recorded them, where its patchable members lie: only an
   output computed again is recorded, as one computed once is not known
   to be read again.  Callers hold the read lock, so the data versions
   that [store] snapshots are exactly the versions [run] computed
   against.  [deps] is asked for after [run], [footprint] only when a
   write reached the entry: a transform compiles in neither until the
   cache cannot serve it. *)
let serve_cached t options ~metrics ~view ~key ~deps ?footprint ?patch ?slot run =
  if not options.result_cache then fst (run ~record:false)
  else
    match Result_cache.find t.rc ~key ?footprint ?patch ?slot () with
    | Result_cache.Hit output ->
        stamp_outcome metrics ~hit:true ~patched:false;
        output
    | Result_cache.Patched output ->
        stamp_outcome metrics ~hit:false ~patched:true;
        output
    | (Result_cache.Miss | Result_cache.Dropped) as outcome ->
        let output, members = run ~record:(outcome = Result_cache.Dropped) in
        Result_cache.store t.rc ~view ~key ~deps:(deps ()) ?members ?slot output;
        stamp_outcome metrics ~hit:false ~patched:false;
        output

let unrecorded run ~record:_ = (run (), None)

(* ------------------------------------------------------------------ *)
(* Transform                                                           *)
(* ------------------------------------------------------------------ *)

let transform_body ~options ?metrics t compiled ~record =
  let members = ref None in
  let on_members = if record then Some (fun m -> members := Some m) else None in
  let output =
    Xdb_error.wrap ~stage:"exec" (fun () ->
        with_jobs t options (fun pool ->
            Pipeline.run_rewrite ?metrics ?pool ?on_members t.db compiled))
  in
  (output, !members)

(* serve a transform, compiled on first need: writes the plan never
   read keep the cached page, and writes only its patchable members read
   patch it (timed as the [result_cache_patch] stage) *)
let serve_transform t options ~metrics ~view ~key ?slot compiled =
  let compiled () = Lazy.force compiled in
  let patch output recorded changes =
    let c = compiled () in
    match (c.Pipeline.sql_plan, Option.map Xdb_rel.Footprint.get c.Pipeline.footprint) with
    | Some plan, Some { Xdb_rel.Footprint.members = Some m; _ } ->
        staged metrics "result_cache_patch" (fun () ->
            Xdb_error.wrap ~stage:"exec" (fun () ->
                Xdb_rel.Exec.patch t.db plan m recorded ~changes output))
    | _ -> None
  in
  serve_cached t options ~metrics ~view ~key ?slot
    ~deps:(fun () -> (compiled ()).Pipeline.deps)
    ~footprint:(fun () -> (compiled ()).Pipeline.footprint)
    ~patch
    (fun ~record -> transform_body ~options ?metrics t (compiled ()) ~record)

(* a held entry that no write reached is served before any of
   [serve_transform]'s closures are built *)
let transform_stmt ?(options = default_run_options) t stmt =
  let metrics = metrics_of options in
  let output =
    Rw.read t.rw (fun () ->
        let compiled = stmt_compiled ?metrics t stmt in
        match if options.result_cache then Result_cache.hit t.rc stmt.st_slot else None with
        | Some output ->
            stamp_outcome metrics ~hit:true ~patched:false;
            output
        | None ->
            serve_transform t options ~metrics ~view:stmt.st_view ~key:stmt.st_key
              ~slot:stmt.st_slot (Lazy.from_val compiled))
  in
  { output; metrics }

(* ------------------------------------------------------------------ *)
(* Publish                                                             *)
(* ------------------------------------------------------------------ *)

let publish ?(options = default_run_options) t ~view_name =
  let metrics = metrics_of options in
  let indent = options.indent in
  let output =
    Rw.read t.rw (fun () ->
        (* publishing shares the registry's view table *)
        let view =
          Xdb_error.wrap ~stage:"publish" (fun () -> Registry.find_view t.registry view_name)
        in
        let run () =
          Xdb_error.wrap ~stage:"serialize" (fun () ->
              staged metrics "publish_stream" (fun () ->
                  with_jobs t options (fun pool ->
                      Pipeline.per_document ?pool (P.documents t.db view) (fun () ->
                          let buf = Buffer.create 1024 in
                          fun _ -> P.serialize ~indent buf))))
        in
        (* indent changes the bytes, so it is part of the key *)
        let key = "P\x00" ^ view_name ^ "\x00" ^ if indent then "i" else "-" in
        serve_cached t options ~metrics ~view:view_name ~key
          ~deps:(fun () -> List.sort_uniq compare (P.view_tables view))
          (unrecorded run))
  in
  { output; metrics }

(* ------------------------------------------------------------------ *)
(* Shredded storage                                                    *)
(* ------------------------------------------------------------------ *)

let shred_store t = t.shred

(* the data-version key of the whole shred store: the result-cache
   dependency of shredded transforms (no SQL table can carry this name) *)
let shred_dep = "<shred store>"

let store_shredded t doc =
  let s = shred_store t in
  Rw.write t.rw (fun () ->
      let docid = Xdb_error.wrap ~stage:"shred" (fun () -> Xdb_rel.Shred.shred s doc) in
      (* a new document changes what "all documents" means for cached
         shredded transforms *)
      Xdb_rel.Database.bump_data_version t.db shred_dep;
      docid)

let run_shredded_source ?(options = default_run_options) t ~docids ~stylesheet =
  let s = shred_store t in
  let metrics = metrics_of options in
  Rw.read t.rw (fun () ->
      let docids =
        match docids with Some ids -> ids | None -> Xdb_rel.Shred.doc_ids s
      in
      match docids with
      | [] -> { output = []; metrics }
      | _ :: _ ->
          (* compiled once per stylesheet text: the shredded VM needs no
             example document, so nothing is reconstructed to compile *)
          let prog =
            Xdb_error.wrap ~stage:"compile" (fun () ->
                Registry.shredded ?metrics t.registry ~stylesheet)
          in
          let run () =
            Xdb_error.wrap ~stage:"exec" (fun () ->
                with_jobs t options (fun pool ->
                    Pipeline.run_shredded ?metrics ?pool s prog docids))
          in
          let key =
            "S\x00"
            ^ String.concat "," (List.map string_of_int docids)
            ^ "\x00" ^ stylesheet
          in
          let output =
            serve_cached t options ~metrics ~view:"" ~key ~deps:(fun () -> [ shred_dep ]) (unrecorded run)
          in
          { output; metrics })

let query_shredded t ~docid expr =
  let s = shred_store t in
  Rw.read t.rw (fun () ->
      Xdb_error.wrap ~stage:"exec" (fun () ->
          Xdb_rel.Shred.serialize s ~docid (Xdb_rel.Shred.select s ~docid expr)))

(* ------------------------------------------------------------------ *)
(* The unified verb                                                    *)
(* ------------------------------------------------------------------ *)

let transform ?(options = default_run_options) t ~view_name ~stylesheet =
  let metrics = metrics_of options in
  let output =
    Rw.read t.rw (fun () ->
        (* the result cache is probed first: a page it serves needs no
           plan, so a shape hit is bound only on a miss or a patch *)
        serve_transform t options ~metrics ~view:view_name
          ~key:(transform_key view_name stylesheet)
          (lazy (compile_view ?metrics t ~view_name ~stylesheet)))
  in
  { output; metrics }

let run ?options t source ~stylesheet =
  match source with
  | View view_name -> transform ?options t ~view_name ~stylesheet
  | Shredded docids -> run_shredded_source ?options t ~docids ~stylesheet

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_stmt t stmt = Pipeline.explain (Rw.read t.rw (fun () -> stmt_compiled t stmt))

let explain t ~view_name ~stylesheet = explain_stmt t (prepare t ~view_name ~stylesheet)

let explain_analyze_stmt ?metrics t stmt =
  Rw.read t.rw (fun () ->
      let compiled = stmt_compiled ?metrics t stmt in
      Xdb_error.wrap ~stage:"exec" (fun () -> Pipeline.explain_analyze t.db compiled))

let explain_analyze ?metrics t ~view_name ~stylesheet =
  explain_analyze_stmt ?metrics t (prepare ?metrics t ~view_name ~stylesheet)

(* ------------------------------------------------------------------ *)
(* The SQL front door                                                  *)
(* ------------------------------------------------------------------ *)

let locked_sql t f =
  Mutex.lock t.sql_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sql_lock) f

let sql_ctx t : Sql_front.ctx =
  {
    Sql_front.db = t.db;
    find_xml_view =
      (fun name ->
        match Registry.find_view_opt t.registry name with
        | Some v -> Some v
        | None ->
            let lname = String.lowercase_ascii name in
            List.find_opt
              (fun (n, _) -> String.lowercase_ascii n = lname)
              (Registry.views t.registry)
            |> Option.map snd);
    find_xslt_view =
      (fun name ->
        let lname = String.lowercase_ascii name in
        locked_sql t (fun () ->
            List.find_opt
              (fun (xv : Sql_front.xslt_view) ->
                String.lowercase_ascii xv.Sql_front.xv_name = lname)
              t.xslt_views));
    register_xslt_view =
      (fun xv ->
        locked_sql t (fun () ->
            t.xslt_views <-
              xv
              :: List.filter
                   (fun (old : Sql_front.xslt_view) ->
                     String.lowercase_ascii old.Sql_front.xv_name
                     <> String.lowercase_ascii xv.Sql_front.xv_name)
                   t.xslt_views));
    compile =
      (fun view stylesheet ->
        Registry.compile ~options:t.options t.registry ~view_name:view.P.view_name
          ~stylesheet);
  }

let execute t text =
  let stmt =
    Xdb_error.wrap ~stage:"parse" (fun () -> Xdb_sql.Parser.parse text)
  in
  let run_it () =
    Xdb_error.wrap ~stage:"exec" (fun () -> Sql_front.run (sql_ctx t) stmt)
  in
  match stmt with
  | Xdb_sql.Ast.Select _ -> Rw.read t.rw run_it
  | Xdb_sql.Ast.Analyze _ | Xdb_sql.Ast.Create_view _ | Xdb_sql.Ast.Insert _
  | Xdb_sql.Ast.Update _ | Xdb_sql.Ast.Delete _ ->
      Rw.write t.rw run_it

let registry_counters t = Registry.counters t.registry
let result_cache_counters t = Result_cache.counters t.rc
let result_cache_size t = Result_cache.size t.rc
let stmt_recording t stmt = Result_cache.recording t.rc ~key:stmt.st_key
