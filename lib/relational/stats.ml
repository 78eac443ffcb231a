(** Per-operator runtime statistics for the Volcano executor.

    A collector is built from one plan tree: every operator — including
    plans nested inside expressions as correlated subqueries — gets an
    [op_stats] record keyed by the node's physical identity.  The
    instrumented executor ({!Exec.run_analyzed}) accumulates into these
    records; {!Optimizer.explain_analyze} renders them next to the
    cardinality estimates, making estimator errors visible (paper §2.1's
    B-tree probe vs full scan distinction, Figure 2). *)

module A = Algebra

type op_stats = {
  mutable loops : int;  (** times the operator was executed *)
  mutable rows : int;  (** total rows produced across all loops *)
  mutable btree_probes : int;  (** B-tree descents (index scans) *)
  mutable btree_nodes : int;  (** B-tree nodes visited during probes *)
  mutable heap_rows : int;  (** heap rows fetched (scan operators) *)
  mutable build_rows : int;  (** rows hashed into the build table (hash join) *)
  mutable probe_hits : int;  (** matches found while probing (hash join) *)
  mutable presorted : int;
      (** ORDER BY inputs already in key order, so the sort was skipped
          (Sort opens, XMLAgg ORDER BY groups of an Aggregate) *)
  mutable sorted : int;  (** ORDER BY inputs that had to be sorted *)
  mutable time_ms : float;  (** inclusive wall time, milliseconds *)
}

let fresh_op () =
  {
    loops = 0;
    rows = 0;
    btree_probes = 0;
    btree_nodes = 0;
    heap_rows = 0;
    build_rows = 0;
    probe_hits = 0;
    presorted = 0;
    sorted = 0;
    time_ms = 0.0;
  }

type entry = { id : int; label : string; node : A.plan; op : op_stats }

type t = { mutable entries : entry list  (** pre-order *) }

(** Short operator label used in JSON renderings. *)
let label_of_plan = function
  | A.Seq_scan { table; _ } -> "SeqScan " ^ table
  | A.Index_scan { table; index_column; _ } ->
      Printf.sprintf "IndexScan %s(%s)" table index_column
  | A.Filter _ -> "Filter"
  | A.Project _ -> "Project"
  | A.Nested_loop _ -> "NestedLoop"
  | A.Hash_join { kind; _ } -> Printf.sprintf "HashJoin(%s)" (A.join_kind_name kind)
  | A.Aggregate _ -> "Aggregate"
  | A.Sort _ -> "Sort"
  | A.Limit _ -> "Limit"
  | A.Values _ -> "Values"

(** [create plan] — a collector with one entry per operator of [plan],
    pre-order, descending into correlated subqueries nested inside
    expressions (the same traversal the EXPLAIN printer makes). *)
let create (plan : A.plan) : t =
  let entries = ref [] in
  let next = ref 0 in
  let add p =
    let id = !next in
    incr next;
    entries := { id; label = label_of_plan p; node = p; op = fresh_op () } :: !entries
  in
  A.iter plan ~plan:add ~expr:ignore;
  { entries = List.rev !entries }

(** Stats record of a plan node by physical identity ([==]); [None] for
    nodes outside the collector's plan. *)
let find (t : t) (p : A.plan) : op_stats option =
  let rec scan = function
    | [] -> None
    | e :: rest -> if e.node == p then Some e.op else scan rest
  in
  scan t.entries

let entries t = t.entries

(** Total rows produced by the root operator (entry 0). *)
let root_rows t = match t.entries with [] -> 0 | e :: _ -> e.op.rows

(** [(label, actual rows)] per operator, pre-order — the executor-agnostic
    shape of a run: two executions of the same plan agree on actual row
    counts iff their signatures are equal (bench/CI check). *)
let rows_signature t = List.map (fun e -> (e.label, e.op.rows)) t.entries

(* ------------------------------------------------------------------ *)
(* Renderings                                                          *)
(* ------------------------------------------------------------------ *)

(** One-line annotation for an operator, appended to EXPLAIN output. *)
let annotation (s : op_stats) : string =
  let extra =
    (if s.btree_probes > 0 then
       Printf.sprintf " probes=%d btree_nodes=%d" s.btree_probes s.btree_nodes
     else "")
    ^ (if s.heap_rows > 0 then Printf.sprintf " heap_rows=%d" s.heap_rows else "")
    ^ (if s.build_rows > 0 || s.probe_hits > 0 then
         Printf.sprintf " build_rows=%d probe_hits=%d" s.build_rows s.probe_hits
       else "")
    ^
    if s.presorted > 0 || s.sorted > 0 then
      Printf.sprintf " presorted=%d sorted=%d" s.presorted s.sorted
    else ""
  in
  Printf.sprintf "actual=%d loops=%d time=%.3fms%s" s.rows s.loops s.time_ms extra

(** Stable JSON array of per-operator stats, pre-order. *)
let to_json (t : t) : string =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           {|{"id":%d,"op":"%s","rows":%d,"loops":%d,"btree_probes":%d,"btree_nodes":%d,"heap_rows":%d,"build_rows":%d,"probe_hits":%d,"presorted":%d,"sorted":%d,"time_ms":%.4f}|}
           e.id (String.escaped e.label) e.op.rows e.op.loops e.op.btree_probes
           e.op.btree_nodes e.op.heap_rows e.op.build_rows e.op.probe_hits e.op.presorted
           e.op.sorted e.op.time_ms))
    t.entries;
  Buffer.add_char buf ']';
  Buffer.contents buf
