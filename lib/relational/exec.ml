(** Plan and expression evaluation: the compiled executor.

    A plan-open column-resolution pass assigns every operator output a
    fixed {!Layout.t} (name → integer slot, qualified aliases resolved
    statically), expressions compile to closures over [Value.t array]
    rows, and operators exchange batches of ~{!default_batch_size} rows.
    Unresolvable references fail at plan-open time with the available
    columns listed.

    Each scan binds both the bare column name and the [alias.column]
    qualified form, so correlated subqueries can reference outer tables
    the way paper Table 7 does ([DEPTNO = DEPT.DEPTNO]).  A compiled
    operator's rows hold only its own slots; the correlation row is the
    environment its cursor was opened on, and expressions read outer
    columns from it in place.

    An optional {!Stats.t} collector makes every operator record rows
    produced, loops, B-tree probe counts and inclusive wall time
    (EXPLAIN ANALYZE). *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
open Algebra

type row = (string * Value.t) list

exception Exec_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

let bool_of_value = function
  | Value.Null -> false
  | Value.Int i -> i <> 0
  (* XPath/SQL boolean semantics: NaN is false (NaN <> 0.0 holds in OCaml,
     so the naive test would make NaN truthy) *)
  | Value.Float f -> f <> 0.0 && not (Float.is_nan f)
  | Value.Str s -> s <> ""
  | Value.Xml ns -> ns <> []
  | Value.Xml_stream produce ->
      (* probe for a first event — the streamed image of [ns <> []] *)
      let exception Non_empty in
      (try
         produce { E.emit = (fun _ -> raise Non_empty); finish = (fun () -> ()) };
         false
       with Non_empty -> true)

(* value → XML content events (SQL/XML: scalars become text, NULL
   vanishes) *)
let emit_content sink = function
  | Value.Null -> ()
  | Value.Xml nodes -> List.iter (E.emit_tree sink) nodes
  | Value.Xml_stream produce -> produce sink
  | v -> sink.E.emit (E.Text (Value.to_string v))

(* Constructor results: every SQL/XML constructor describes its output as
   an event producer; streaming mode returns the producer itself, DOM mode
   drains it through the tree builder — one construction path, two
   representations. *)
let xml_value ~streaming produce =
  if streaming then Value.Xml_stream produce else Value.Xml (Value.stream_to_nodes produce)

(* ------------------------------------------------------------------ *)
(* ORDER BY bookkeeping                                               *)
(* ------------------------------------------------------------------ *)

(* EXPLAIN ANALYZE's ordering strategy: one tick per Sort open or
   XMLAgg ORDER BY group, presorted when its input was already in key
   order *)
let note_order (sop : Stats.op_stats option) presorted =
  match sop with
  | None -> ()
  | Some s ->
      if presorted then s.Stats.presorted <- s.Stats.presorted + 1
      else s.Stats.sorted <- s.Stats.sorted + 1

let dir_cmp d c = match d with Asc -> c | Desc -> -c

(* the row ids an index scan over [idx] yields for the bound values [lo]
   and [hi], answering exactly as the SQL comparisons it stands for
   ([compare_holds]) do: none holds for NULL or NaN, so such a bound
   selects nothing, and an open lower end starts above the NULL keys
   (they sort first).  The B-tree orders numbers and strings apart, while
   [compare_sql] compares a string with a number as numbers (failing on
   a string that is not one): a bound of the other class than the column
   is answered by those comparisons over the heap, raising where the
   filter would. *)
let index_rids (tbl : Table.t) (idx : Table.index) lo hi : int array =
  let pos = idx.Table.idx_pos in
  let numeric = tbl.Table.columns.(pos).Table.col_type <> Value.Tstr in
  let other_class = function
    | Btree.Inclusive v | Btree.Exclusive v -> (
        match v with
        | Value.Str _ -> numeric
        | Value.Int _ | Value.Float _ -> not numeric
        | _ -> false)
    | Btree.Unbounded -> false
  in
  (* [v] within bound [b], from below when [sign] is 1, from above at -1 *)
  let within sign v b =
    match b with
    | Btree.Unbounded -> true
    | Btree.Inclusive b ->
        Option.fold ~none:false ~some:(fun c -> sign * c >= 0) (Value.compare_sql v b)
    | Btree.Exclusive b ->
        Option.fold ~none:false ~some:(fun c -> sign * c > 0) (Value.compare_sql v b)
  in
  let nan = function Btree.Inclusive v | Btree.Exclusive v -> Value.is_nan v | _ -> false in
  if nan lo || nan hi then [||]
  else if other_class lo || other_class hi then
    Table.fold
      (fun acc rid r ->
        let v = r.(pos) in
        if (not (Value.is_null v)) && within 1 v lo && within (-1) v hi then rid :: acc else acc)
      [] tbl
    |> List.rev |> Array.of_list
  else
    match (lo, hi) with
    | (Btree.Inclusive Value.Null | Btree.Exclusive Value.Null), _
    | _, (Btree.Inclusive Value.Null | Btree.Exclusive Value.Null) ->
        [||]
    | Btree.Unbounded, hi -> Btree.range_rids idx.Table.tree ~lo:(Btree.Exclusive Value.Null) ~hi
    | lo, hi -> Btree.range_rids idx.Table.tree ~lo ~hi

(* ------------------------------------------------------------------ *)
(* Hash-join key hashing                                              *)
(* ------------------------------------------------------------------ *)

(* Bucket key for a tuple of join-key values.  Values that compare equal
   under {!Value.compare_sql} must land in the same bucket: numerics are
   normalised through their float image (SQL equality compares Int/Float
   mixtures as floats), strings keep a distinct tag.  Bucket candidates
   are re-verified with {!Value.equal_sql}, so a hash collision can never
   produce a false match — only the converse (equal values in different
   buckets) would be a bug. *)
let hash_key_string (vs : Value.t array) : string =
  let b = Buffer.create 32 in
  Array.iter
    (fun v ->
      (match v with
      | Value.Int _ | Value.Float _ ->
          Buffer.add_char b 'n';
          Buffer.add_string b (Value.float_to_string (Value.to_float v))
      | Value.Str s ->
          Buffer.add_char b 's';
          Buffer.add_string b s
      | v ->
          Buffer.add_char b 'x';
          Buffer.add_string b (Value.to_string v));
      Buffer.add_char b '\x00')
    vs;
  Buffer.contents b

let hash_keys_equal (a : Value.t array) (b : Value.t array) : bool =
  let n = Array.length a in
  let rec go i = i >= n || (Value.equal_sql a.(i) b.(i) && go (i + 1)) in
  go 0

(* the bindings of a scanned row: bare and alias-qualified names *)
let scan_bindings (tbl : Table.t) alias (r : Value.t array) : row =
  let out = ref [] in
  Array.iteri
    (fun i c ->
      let v = r.(i) in
      out := (alias ^ "." ^ c.Table.col_name, v) :: (c.Table.col_name, v) :: !out)
    tbl.Table.columns;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Compiled plan execution: layouts, closures, batches                 *)
(* ------------------------------------------------------------------ *)

let default_batch_size = 1024

(** A batch cursor: [None] at end of stream; batches are never empty. *)
type cursor = unit -> Value.t array array option

(** A compiled plan: its output layout (own columns, then the
    environment's), its own width, and an open function taking the
    environment row.  Cursor rows hold the own slots only; layout slot
    [s >= c_own] is environment slot [s - c_own].  Opening yields a fresh
    cursor, so one compilation serves many executions (correlated
    subqueries open once per outer row). *)
type compiled = { c_layout : Layout.t; c_own : int; c_open : Value.t array -> cursor }

(* a patch declines: the page is recomputed *)
exception Recompute

(* 0 numbers, 1 strings, 2 anything else (that no probe can compare) *)
let key_class = function Value.(Int _ | Float _) -> 0 | Value.Str _ -> 1 | _ -> 2

(* driving-row keys by the index probe's equality ([index_rids],
   [Value.compare_sql]) within one [key_class]: numbers compare by
   their float value, so two ints that round to one float share a key
   (a patch then re-emits both members, which is harmless).  A probe by
   a key of another class than some member's recomputes: the index probe
   answers it by casting *)
module Keys = Hashtbl.Make (struct
  type t = Value.t

  let equal k v =
    match (k, v) with
    | Value.Str a, Value.Str b -> String.equal a b
    | Value.(Int _ | Float _), Value.(Int _ | Float _) ->
        Float.equal (Value.to_float k) (Value.to_float v)
    | _ -> false

  let hash = function
    | Value.(Int _ | Float _) as k -> Hashtbl.hash (Value.to_float k)
    | v -> Hashtbl.hash v
end)

(* the members of one document by their driving row's key in one
   column: the members per non-NULL key, and how many keys fall in each
   [key_class].  A write to the column recomputes
   ({!Footprint.members}), so the keys stay as filed *)
type key_index = { kcol : int; by_value : int list Keys.t; classes : int array }

(* one output document's members of the patchable XMLAgg, as the run
   that serialized them saw them, and the indexes a patch finds them by.
   Offsets are content offsets: past the [>] that closed a start tag
   left open before the first member. *)
type doc_members = {
  env : Value.t array;  (* the environment the aggregate opened on *)
  drows : Value.t array array;  (* driving rows, in member order *)
  lens : int array;
      (* the members' byte lengths as a Fenwick tree: slot [i - 1] holds
         the lengths of members [i - lowbit i, i), so a prefix sum or a
         length change touches O(log n) slots *)
  mutable total : int;  (* the bytes of all members *)
  start : int;  (* where the first member's bytes begin *)
  opened : bool;  (* a start tag was open before the first member *)
  mutable by_rid : int array option;
      (* the member of each driving-table row id, -1 for none: built by
         the first patch of a driving write *)
  mutable by_key : (string * key_index) list;
      (* per driving column an inner table correlates on: built by the
         first patch of a write to such a table *)
}

let lowbit i = i land -i

(* the total length of members [0, j) *)
let prefix lens j =
  let s = ref 0 and i = ref j in
  while !i > 0 do
    s := !s + lens.(!i - 1);
    i := !i - lowbit !i
  done;
  !s

(* member [j]'s length moved by [d] *)
let grow lens j d =
  let i = ref (j + 1) in
  while !i <= Array.length lens do
    lens.(!i - 1) <- lens.(!i - 1) + d;
    i := !i + lowbit !i
  done

(* lengths in place into their Fenwick tree, in O(n) *)
let fenwick lens =
  let n = Array.length lens in
  for i = 1 to n do
    let up = i + lowbit i in
    if up <= n then lens.(up - 1) <- lens.(up - 1) + lens.(i - 1)
  done

(* where member [j] begins; [begin_of dm n] is where the last one ends *)
let begin_of dm j = dm.start + prefix dm.lens j

(* [memit] is the member emitter the recording run compiled: it reads
   the tables through the [Table.t]s [mplan] was compiled against, row by
   row at call time, and holds no row of its own.  A patch updates
   [mdocs] in place, under [mlock], and hands on a fresh record: the one
   it patched is [spent], and a patch of it recomputes *)
type members = {
  mplan : plan;
  memit : E.sink -> Value.t array -> Value.t array -> unit;
  mlock : Mutex.t;
  mdocs : (int * doc_members) list;
  mutable spent : bool;
}

(* what a recording run of [rtarget] saw, and its compiled emitter *)
type recorder = {
  rtarget : agg;
  mutable emitter : (E.sink -> Value.t array -> Value.t array -> unit) option;
  mutable current : (int * E.sink * Buffer.t * (unit -> bool)) option;
      (* the document serializing now: its index, sink, buffer and
         whether a start tag is open in it *)
  mutable recorded : (int * doc_members) list;
  mutable valid : bool;
}

type cctx = {
  cdb : Database.t;
  cstats : Stats.t option;
  cxml_streaming : bool;
  crowid : bool;
      (* the plan projects [rowid_column]: scans append each row's id as
         one more own slot (a copy of the row); otherwise they hand out
         the table's own arrays *)
  crecord : recorder option;
}

(* emit the aggregate's members [ms] into [sink], recording each one's
   driving row and byte length when [sink] is the recorder's current
   document and this is the document's first emission of the aggregate.
   Any other emission (a probe, a string conversion, a DOM, a second
   time) makes the run's recording unusable.  So does a wrapper that
   self-closes because every member is empty: it has no member bytes. *)
let record_members rc sink env ms emit =
  match rc.current with
  | Some (doc, s, buf, pending) when s == sink && not (List.mem_assoc doc rc.recorded) ->
      let offset () = Buffer.length buf + if pending () then 1 else 0 in
      let n = List.length ms in
      let drows = Array.make n [||] and lens = Array.make n 0 in
      let opened = pending () and start = offset () in
      List.iteri
        (fun i r ->
          let at = offset () in
          emit r;
          drows.(i) <- r;
          lens.(i) <- offset () - at)
        ms;
      let total = offset () - start in
      fenwick lens;
      if opened && pending () then rc.valid <- false
      else
        rc.recorded <-
          (doc, { env; drows; lens; total; start; opened; by_rid = None; by_key = [] })
          :: rc.recorded
  | _ ->
      rc.valid <- false;
      List.iter emit ms

let rowid_column = "$rowid"

(* does the top projection of [p] list [rowid_column]?  That is how a
   DML plan asks for row ids; no other plan reads them *)
let reads_rowid = function
  | Project (fields, _) ->
      List.exists (function Col (_, c), _ -> c = rowid_column | _ -> false) fields
  | _ -> false

let resolve_slot lay alias name =
  match Layout.slot_opt lay ?alias name with
  | Some s -> s
  | None ->
      err "unknown column %s (available columns: %s)"
        (match alias with Some a -> a ^ "." ^ name | None -> name)
        (Layout.describe lay)

(* duplicate output names within one operator would make slot resolution
   ambiguous — reject at plan-open time *)
let check_distinct what names =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then err "ambiguous column %s: bound more than once in %s" n what
      else Hashtbl.add seen n ())
    names

(* drain a cursor to a row list (subqueries, blocking operators); the
   list is built once, back to front, from the batches newest first *)
let drain_cursor (next : cursor) : Value.t array list =
  let rec go batches =
    match next () with
    | None -> List.fold_left (fun acc b -> Array.fold_right List.cons b acc) [] batches
    | Some b -> go (b :: batches)
  in
  go []

(* chunked cursor over an indexed row source; rows are shared, not copied *)
let chunked_cursor ~batch ~count ~get : cursor =
  let pos = ref 0 in
  fun () ->
    let n = count () in
    if !pos >= n then None
    else (
      let len = min batch (n - !pos) in
      let base = !pos in
      pos := base + len;
      Some (Array.init len (fun j -> get (base + j))))

(* a scan over [tbl]: its layout (the columns, then [rowid_column] when
   the plan reads it, then the environment's), its own width, and its row
   for a row id — the table's own array unless the id is appended *)
let scan_parts ctx (tbl : Table.t) alias outer_lay =
  let names = Array.map (fun c -> c.Table.col_name) tbl.Table.columns in
  let n = Array.length names in
  let cols = Layout.of_columns ~alias names in
  if ctx.crowid then
    ( Layout.concat (Layout.concat cols (Layout.of_bindings [ rowid_column ])) outer_lay,
      n + 1,
      fun rid ->
        let out = Array.make (n + 1) (Value.Int rid) in
        Array.blit (Table.unsafe_row tbl rid) 0 out 0 n;
        out )
  else (Layout.concat cols outer_lay, n, Table.unsafe_row tbl)

(* [with_env own env r] — the first [own] slots of [r], then [env]: the
   environment a subplan opens on, or a joined row.  Shares [r] or [env]
   when the other part is empty (rows are never mutated). *)
let with_env own (env : Value.t array) (r : Value.t array) =
  let k = Array.length env in
  if own = 0 then env
  else if k = 0 then r
  else (
    let out = Array.make (own + k) Value.Null in
    Array.blit r 0 out 0 own;
    Array.blit env 0 out own k;
    out)

(* a reader for slot [s] of such a layout, taking [env] then the row *)
let slot_reader own s : Value.t array -> Value.t array -> Value.t =
  if s < own then fun _ r -> Array.unsafe_get r s
  else
    let s = s - own in
    fun env _ -> Array.unsafe_get env s

(* cursor over a lazily computed materialised result (Sort/Limit/Aggregate
   compute everything on the first pull, then emit in batches) *)
let lazy_array_cursor batch (compute : unit -> Value.t array array) : cursor =
  let state = ref None in
  let pos = ref 0 in
  fun () ->
    let arr =
      match !state with
      | Some a -> a
      | None ->
          let a = compute () in
          state := Some a;
          a
    in
    if !pos >= Array.length arr then None
    else (
      let len = min batch (Array.length arr - !pos) in
      let b = Array.sub arr !pos len in
      pos := !pos + len;
      Some b)

(* a cursor over the rows [each] pushes for every row of [next], in input
   order, handed on in batches of about [batch] rows (the joins) *)
let flat_map_cursor batch (next : cursor) each : cursor =
  let obatch = ref [||] and oidx = ref 0 in
  let outer_done = ref false in
  let buf = ref [] and nbuf = ref 0 in
  let push r =
    buf := r :: !buf;
    incr nbuf
  in
  let rec fill () =
    if !nbuf >= batch then ()
    else if !oidx < Array.length !obatch then (
      let row = (!obatch).(!oidx) in
      incr oidx;
      each push row;
      fill ())
    else if not !outer_done then
      match next () with
      | None -> outer_done := true
      | Some b ->
          obatch := b;
          oidx := 0;
          fill ()
  in
  fun () ->
    fill ();
    if !nbuf = 0 then None
    else (
      let out = Array.of_list (List.rev !buf) in
      buf := [];
      nbuf := 0;
      Some out)

(* per-open instrumentation: loops per open, rows per batch, inclusive
   wall time around open and every pull (child time is included) *)
let instrumented_open (s : Stats.op_stats) open_ (env : Value.t array) : cursor =
  let t0 = Clock.now_ns () in
  s.Stats.loops <- s.Stats.loops + 1;
  let next = open_ env in
  s.Stats.time_ms <- s.Stats.time_ms +. Clock.ms_since t0;
  fun () ->
    let t0 = Clock.now_ns () in
    let b = next () in
    s.Stats.time_ms <- s.Stats.time_ms +. Clock.ms_since t0;
    (match b with Some rows -> s.Stats.rows <- s.Stats.rows + Array.length rows | None -> ());
    b

let sort_cmp_keys dirs (ka : Value.t array) (kb : Value.t array) =
  let n = Array.length dirs in
  let rec go i =
    if i >= n then 0
    else
      let c = dir_cmp dirs.(i) (Value.compare_key ka.(i) kb.(i)) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* [rows_in_order env kfs dirs rows]: a stable sort on the keys would
   leave [rows] as they are.  One pass over adjacent rows, keys evaluated
   in place (no decorated arrays); a single key compares directly, with an
   Int/Int shortcut. *)
let rows_in_order env (kfs : (Value.t array -> Value.t array -> Value.t) array) dirs
    (rows : Value.t array list) =
  match (kfs, rows) with
  | _, ([] | [ _ ]) -> true
  | [| kf |], r :: rest ->
      let le a b =
        match (a, b) with Value.Int x, Value.Int y -> x <= y | _ -> Value.compare_key a b <= 0
      in
      let ordered = match dirs.(0) with Asc -> le | Desc -> fun a b -> le b a in
      let rec go prev = function
        | [] -> true
        | r :: rest ->
            let k = kf env r in
            ordered prev k && go k rest
      in
      go (kf env r) rest
  | _ ->
      let n = Array.length kfs in
      let rec cmp a b i =
        if i >= n then 0
        else
          let c = dir_cmp dirs.(i) (Value.compare_key (kfs.(i) env a) (kfs.(i) env b)) in
          if c <> 0 then c else cmp a b (i + 1)
      in
      let rec go = function a :: (b :: _ as rest) -> cmp a b 0 <= 0 && go rest | _ -> true in
      go rows

(* Rows of one ORDER BY in key order.  Input that already is in order —
   a scan over the heap order the key was stored in, as the publishing
   views' document order is — comes back untouched after one in-place
   pass; otherwise decorate + stable sort.  Stability makes both
   outcomes identical.  Keys that run a subquery ([pure] false) are
   decorated first, so the subquery runs once per row, and checked for
   order there. *)
let order_rows sop env kfs dirs ~pure rows =
  if pure && rows_in_order env kfs dirs rows then (
    note_order sop true;
    rows)
  else
    let dec = Array.of_list (List.map (fun r -> (Array.map (fun kf -> kf env r) kfs, r)) rows) in
    let cmp (ka, _) (kb, _) = sort_cmp_keys dirs ka kb in
    let n = Array.length dec in
    let rec in_order i = i >= n - 1 || (cmp dec.(i) dec.(i + 1) <= 0 && in_order (i + 1)) in
    (* pure keys were checked in place already *)
    let presorted = (not pure) && in_order 0 in
    note_order sop presorted;
    if not presorted then Array.stable_sort cmp dec;
    Array.fold_right (fun (_, r) acc -> r :: acc) dec []

(* a comparison operator as a test on a three-way comparison result *)
let cmp_test : binop -> int -> bool = function
  | Eq -> fun c -> c = 0
  | Neq -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Leq -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Geq -> fun c -> c >= 0
  | _ -> invalid_arg "cmp_test"

(* a comparison's truth: false on NULL; a NaN (XPath's number of a
   string that is not one) is unordered, so only [<>] holds on it
   (XPath 1.0 §3.4, IEEE 754) *)
let compare_holds op test va vb =
  match (va, vb) with
  | Value.Int x, Value.Int y -> test (Int.compare x y)
  | Value.Null, _ | _, Value.Null -> false
  | Value.Float f, _ when Float.is_nan f -> op = Neq
  | _, Value.Float f when Float.is_nan f -> op = Neq
  | _ -> ( match Value.compare_sql va vb with Some c -> test c | None -> false)
[@@inline]

(* a compiled constructor's attributes and content, written to the sink
   without allocating an iteration closure per constructor call *)
let rec emit_attrs sink env r = function
  | [] -> ()
  | (aq, af) :: rest ->
      (match af env r with
      | Value.Null -> ()
      | v -> sink.E.emit (E.Attr (aq, Value.to_string v)));
      emit_attrs sink env r rest

let rec emit_kids sink env r = function
  | [] -> ()
  | em :: rest ->
      em sink env r;
      emit_kids sink env r rest

(* CASE in content position: the first branch whose test holds, else the
   ELSE branch, else nothing *)
let rec emit_case sink env r els = function
  | [] -> ( match els with Some em -> em sink env r | None -> ())
  | (c, em) :: rest -> if c env r then em sink env r else emit_case sink env r els rest

(* XMLForest: one element per non-NULL field *)
let rec emit_fields sink env r = function
  | [] -> ()
  | (start, ff) :: rest ->
      (match ff env r with
      | Value.Null -> ()
      | v ->
          sink.E.emit start;
          emit_content sink v;
          sink.E.emit E.End_element);
      emit_fields sink env r rest

(* [concat]'s scratch buffers, a stack per domain: the closures of one
   compiled plan may run on several domains at once (a split run
   serializes its documents across a pool), and an argument may itself
   be a [concat], which takes the next buffer up *)
type concat_scratch = { mutable depth : int; mutable bufs : Buffer.t array }

let concat_scratch = Domain.DLS.new_key (fun () -> { depth = 0; bufs = [||] })

(** Compile an expression against a layout (the row's [own] slots, then
    the environment's) into a closure over the environment and the row.
    All column references — including those inside never-taken CASE
    branches and correlated subqueries — resolve now; failures are
    plan-open [Exec_error]s listing the available columns. *)
let rec cexpr ctx (lay : Layout.t) own (e : expr) : Value.t array -> Value.t array -> Value.t =
  match e with
  | Const v -> fun _ _ -> v
  | Param i -> raise (Exec_error (Printf.sprintf "unbound plan parameter :p%d" i))
  | Col (alias, name) -> slot_reader own (resolve_slot lay alias name)
  | Not _ | Binop ((And | Or), _, _) ->
      let p = cpred ctx lay own e in
      fun env r -> Value.Int (if p env r then 1 else 0)
  | Is_null e ->
      let f = cexpr ctx lay own e in
      fun env r -> Value.Int (if Value.is_null (f env r) then 1 else 0)
  | Binop (op, a, b) -> cbinop ctx lay own op a b
  | Fn (f, args) -> cfn ctx lay own f args
  | Case (whens, els) ->
      let whens = List.map (fun (c, r) -> (cpred ctx lay own c, cexpr ctx lay own r)) whens in
      let els = Option.map (cexpr ctx lay own) els in
      (* [env] and [r] passed down, so an evaluation allocates no closure *)
      let rec go env r = function
        | [] -> ( match els with Some f -> f env r | None -> Value.Null)
        | (c, t) :: rest -> if c env r then t env r else go env r rest
      in
      fun env r -> go env r whens
  | Xml_element _ | Xml_forest _ | Xml_concat _ | Xml_text _ | Xml_comment _ | Xml_pi _ ->
      let em = cemit ctx lay own e in
      let streaming = ctx.cxml_streaming in
      fun env r -> xml_value ~streaming (fun sink -> em sink env r)
  | Scalar_subquery p ->
      let cp = cplan ctx lay p in
      let first =
        match Layout.entries cp.c_layout with
        | [] -> None
        | (_, s) :: _ -> Some (slot_reader cp.c_own s)
      in
      fun env r -> (
        let senv = with_env own env r in
        (* full drain, so the subplan's per-operator actual-row counts
           are those of its whole result *)
        match drain_cursor (cp.c_open senv) with
        | [] -> Value.Null
        | row :: _ -> ( match first with None -> Value.Null | Some f -> f senv row))
  | Exists p ->
      let cp = cplan ctx lay p in
      fun env r -> Value.Int (if drain_cursor (cp.c_open (with_env own env r)) = [] then 0 else 1)

(** Compile an expression in content position to a writer: [cemit ctx
    lay own e sink env r] emits what [emit_content sink (cexpr ctx lay own
    e env r)] emits, but nested constructors, [XMLConcat] items and CASE
    branches write straight to the sink — no producer closure, no
    [Value.Xml_stream] box and no DOM per nested constructor.  A CASE with
    no matching branch and no ELSE emits nothing (its value is NULL). *)
and cemit ctx lay own (e : expr) : E.sink -> Value.t array -> Value.t array -> unit =
  match e with
  | Xml_element (name, attrs, kids) ->
      let start = E.Start_element (X.qname name) in
      let attrs = List.map (fun (an, ae) -> (X.qname an, cexpr ctx lay own ae)) attrs in
      let kids = List.map (cemit ctx lay own) kids in
      fun sink env r ->
        sink.E.emit start;
        emit_attrs sink env r attrs;
        emit_kids sink env r kids;
        sink.E.emit E.End_element
  | Xml_forest fields ->
      let fields =
        List.map (fun (n, fe) -> (E.Start_element (X.qname n), cexpr ctx lay own fe)) fields
      in
      fun sink env r -> emit_fields sink env r fields
  | Xml_concat es ->
      let ems = List.map (cemit ctx lay own) es in
      fun sink env r -> emit_kids sink env r ems
  | Xml_text e ->
      let f = cexpr ctx lay own e in
      fun sink env r -> (
        match f env r with Value.Null -> () | v -> sink.E.emit (E.Text (Value.to_string v)))
  | Xml_comment e ->
      let f = cexpr ctx lay own e in
      fun sink env r -> sink.E.emit (E.Comment (Value.to_string (f env r)))
  | Xml_pi (t, e) ->
      let f = cexpr ctx lay own e in
      fun sink env r -> sink.E.emit (E.Pi (t, Value.to_string (f env r)))
  | Case (whens, els) ->
      let whens = List.map (fun (c, b) -> (cpred ctx lay own c, cemit ctx lay own b)) whens in
      let els = Option.map (cemit ctx lay own) els in
      fun sink env r -> emit_case sink env r els whens
  | _ ->
      let f = cexpr ctx lay own e in
      fun sink env r -> emit_content sink (f env r)

(** Compile a condition to an unboxed test: [cpred ctx lay own e env r]
    is [bool_of_value (cexpr ctx lay own e env r)] — NULL and failed
    comparisons are false, [NOT] negates that — without building the
    [Value.Int] truth value or the [compare_sql] option for Int/Int
    comparisons. *)
and cpred ctx lay own (e : expr) : Value.t array -> Value.t array -> bool =
  match e with
  | Binop (And, a, b) ->
      let pa = cpred ctx lay own a and pb = cpred ctx lay own b in
      fun env r -> pa env r && pb env r
  | Binop (Or, a, b) ->
      let pa = cpred ctx lay own a and pb = cpred ctx lay own b in
      fun env r -> pa env r || pb env r
  | Not e ->
      let p = cpred ctx lay own e in
      fun env r -> not (p env r)
  | Binop (((Eq | Neq | Lt | Leq | Gt | Geq) as op), a, b) ->
      let fa = cexpr ctx lay own a and fb = cexpr ctx lay own b in
      let test = cmp_test op in
      fun env r -> compare_holds op test (fa env r) (fb env r)
  | Is_null e ->
      let f = cexpr ctx lay own e in
      fun env r -> Value.is_null (f env r)
  | _ ->
      let f = cexpr ctx lay own e in
      fun env r -> bool_of_value (f env r)

and cbinop ctx lay own op a b =
  let fa = cexpr ctx lay own a and fb = cexpr ctx lay own b in
  match op with
  | And | Or -> assert false (* cexpr compiles these through [cpred] *)
  | Concat -> fun env r -> Value.Str (Value.to_string (fa env r) ^ Value.to_string (fb env r))
  | Fdiv ->
      fun env r -> (
        match (fa env r, fb env r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | va, vb -> Value.Float (Value.to_float va /. Value.to_float vb))
  | (Add | Sub | Mul | Div | Mod) as op ->
      let iop =
        match op with
        | Add -> ( + )
        | Sub -> ( - )
        | Mul -> ( * )
        | Div -> fun x y -> if y = 0 then err "division by zero" else x / y
        | Mod -> fun x y -> if y = 0 then err "division by zero" else x mod y
        | _ -> assert false
      in
      let fop =
        match op with
        | Add -> ( +. )
        | Sub -> ( -. )
        | Mul -> ( *. )
        | Div -> ( /. )
        | Mod -> Float.rem
        | _ -> assert false
      in
      fun env r -> (
        match (fa env r, fb env r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | Value.Int x, Value.Int y -> Value.Int (iop x y)
        | va, vb -> Value.Float (fop (Value.to_float va) (Value.to_float vb)))
  | (Eq | Neq | Lt | Leq | Gt | Geq) as op ->
      let test = cmp_test op in
      fun env r -> (
        match (fa env r, fb env r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | va, vb -> Value.Int (if compare_holds op test va vb then 1 else 0))

and cfn ctx lay own f args =
  let cs = List.map (cexpr ctx lay own) args in
  let f1 () = match cs with [ f ] -> f | _ -> assert false in
  match (String.lowercase_ascii f, List.length args) with
  | "concat", _ ->
      (* the domain's scratch buffer at the current nesting depth:
         cleared, filled with each argument's text, copied out *)
      let cs = Array.of_list cs in
      fun env r -> (
        let st = Domain.DLS.get concat_scratch in
        let d = st.depth in
        if d = Array.length st.bufs then st.bufs <- Array.append st.bufs [| Buffer.create 64 |];
        let b = st.bufs.(d) in
        Buffer.clear b;
        st.depth <- d + 1;
        match
          for i = 0 to Array.length cs - 1 do
            match cs.(i) env r with
            | Value.Str s -> Buffer.add_string b s
            | v -> Buffer.add_string b (Value.to_string v)
          done
        with
        | () ->
            st.depth <- d;
            Value.Str (Buffer.contents b)
        | exception e ->
            st.depth <- d;
            raise e)
  | "upper", 1 ->
      let f0 = f1 () in
      fun env r -> Value.Str (String.uppercase_ascii (Value.to_string (f0 env r)))
  | "lower", 1 ->
      let f0 = f1 () in
      fun env r -> Value.Str (String.lowercase_ascii (Value.to_string (f0 env r)))
  | "xpath_number", 1 ->
      (* XPath number() of a string: NaN when it is not a number *)
      let f0 = f1 () in
      fun env r -> (
        match f0 env r with Value.Str s -> Value.Float (Xdb_xpath.Value.number_of_string s) | v -> v)
  | "length", 1 ->
      let f0 = f1 () in
      fun env r -> Value.Int (String.length (Value.to_string (f0 env r)))
  | "abs", 1 ->
      let f0 = f1 () in
      fun env r -> (
        match f0 env r with
        | Value.Int i -> Value.Int (abs i)
        | x -> Value.Float (Float.abs (Value.to_float x)))
  | "round", 1 ->
      let f0 = f1 () in
      fun env r -> (
        match f0 env r with
        | Value.Null -> Value.Null
        | x -> Value.Float (Xdb_xpath.Value.round_number (Value.to_float x)))
  | "floor", 1 ->
      let f0 = f1 () in
      fun env r -> (
        match f0 env r with
        | Value.Null -> Value.Null
        | x -> Value.Float (Float.floor (Value.to_float x)))
  | "ceiling", 1 ->
      let f0 = f1 () in
      fun env r -> (
        match f0 env r with
        | Value.Null -> Value.Null
        | x -> Value.Float (Float.ceil (Value.to_float x)))
  | "coalesce", _ ->
      fun env r ->
        let rec go = function
          | [] -> Value.Null
          | f :: rest -> ( match f env r with Value.Null -> go rest | x -> x)
        in
        go cs
  | name, n -> err "unknown scalar function %s/%d" name n

and cagg ctx sop lay own (a : agg) : Value.t array -> Value.t array list -> Value.t =
  match a with
  | Count_star -> fun _ ms -> Value.Int (List.length ms)
  | Count e ->
      let f = cexpr ctx lay own e in
      fun env ms ->
        Value.Int (List.length (List.filter (fun r -> not (Value.is_null (f env r))) ms))
  | Sum e ->
      let f = cexpr ctx lay own e in
      fun env ms ->
        let vs =
          List.filter_map (fun r -> match f env r with Value.Null -> None | v -> Some v) ms
        in
        if vs = [] then Value.Null
        else if List.for_all (function Value.Int _ -> true | _ -> false) vs then
          Value.Int (List.fold_left (fun acc v -> acc + Value.to_int v) 0 vs)
        else Value.Float (List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 vs)
  | Min e ->
      let f = cexpr ctx lay own e in
      fun env ms ->
        List.fold_left
          (fun acc r ->
            match (acc, f env r) with
            | acc, Value.Null -> acc
            | Value.Null, v -> v
            | acc, v -> if Value.compare_key v acc < 0 then v else acc)
          Value.Null ms
  | Max e ->
      let f = cexpr ctx lay own e in
      fun env ms ->
        List.fold_left
          (fun acc r ->
            match (acc, f env r) with
            | acc, Value.Null -> acc
            | Value.Null, v -> v
            | acc, v -> if Value.compare_key v acc > 0 then v else acc)
          Value.Null ms
  | Avg e ->
      let f = cexpr ctx lay own e in
      fun env ms ->
        let vs =
          List.filter_map
            (fun r -> match f env r with Value.Null -> None | v -> Some (Value.to_float v))
            ms
        in
        if vs = [] then Value.Null
        else Value.Float (List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))
  | Xml_agg (e, order) ->
      let em = cemit ctx lay own e in
      let kfs = Array.of_list (List.map (fun (k, _) -> cexpr ctx lay own k) order) in
      let dirs = Array.of_list (List.map snd order) in
      let pure = List.for_all (fun (k, _) -> subplans_of_expr k = []) order in
      let record =
        match ctx.crecord with
        | Some rc when rc.rtarget == a ->
            rc.emitter <- Some em;
            Some rc
        | _ -> None
      in
      fun env ms ->
        let ms = if order = [] then ms else order_rows sop env kfs dirs ~pure ms in
        xml_value ~streaming:ctx.cxml_streaming (fun sink ->
            match record with
            | None -> List.iter (fun r -> em sink env r) ms
            | Some rc -> record_members rc sink env ms (fun r -> em sink env r))
  | String_agg (e, sep) ->
      let f = cexpr ctx lay own e in
      fun env ms ->
        Value.Str
          (String.concat sep
             (List.filter_map
                (fun r -> match f env r with Value.Null -> None | v -> Some (Value.to_string v))
                ms))

(** Compile one operator against the layout of its correlation
    environment.  The returned layout is own columns first, then the
    environment's — the slot-level image of an association row's
    [bindings @ outer] — but the rows the operator emits hold only the
    own slots: outer columns are read from the environment row the
    cursor was opened on. *)
and cplan ctx (outer_lay : Layout.t) (p : plan) : compiled =
  let sopt = match ctx.cstats with None -> None | Some st -> Stats.find st p in
  let c =
    match p with
    | Seq_scan { table; alias } ->
        let tbl = Database.table ctx.cdb table in
        let lay, own, row = scan_parts ctx tbl alias outer_lay in
        let count () = Table.size tbl in
        let open_ _ =
          (match sopt with
          | Some s -> s.Stats.heap_rows <- s.Stats.heap_rows + count ()
          | None -> ());
          chunked_cursor ~batch:default_batch_size ~count ~get:row
        in
        { c_layout = lay; c_own = own; c_open = open_ }
    | Index_scan { table; alias; index_column; lo; hi } ->
        let tbl = Database.table ctx.cdb table in
        let idx =
          match Table.find_index tbl index_column with
          | Some i -> i
          | None -> err "no index on %s.%s" table index_column
        in
        let lay, own, row = scan_parts ctx tbl alias outer_lay in
        (* bounds are correlation expressions: compiled against the outer
           layout (no own slots), evaluated once per open on the
           environment *)
        let cbound = function
          | Unbounded -> fun _ -> Btree.Unbounded
          | Incl e ->
              let f = cexpr ctx outer_lay 0 e in
              fun env -> Btree.Inclusive (f env env)
          | Excl e ->
              let f = cexpr ctx outer_lay 0 e in
              fun env -> Btree.Exclusive (f env env)
        in
        let blo = cbound lo and bhi = cbound hi in
        let open_ env =
          let tree = idx.Table.tree in
          let probes0 = Btree.probes tree and nodes0 = Btree.node_visits tree in
          let rids = index_rids tbl idx (blo env) (bhi env) in
          (match sopt with
          | Some s ->
              s.Stats.btree_probes <- s.Stats.btree_probes + (Btree.probes tree - probes0);
              s.Stats.btree_nodes <- s.Stats.btree_nodes + (Btree.node_visits tree - nodes0);
              s.Stats.heap_rows <- s.Stats.heap_rows + Array.length rids
          | None -> ());
          chunked_cursor ~batch:default_batch_size
            ~count:(fun () -> Array.length rids)
            ~get:(fun i -> row rids.(i))
        in
        { c_layout = lay; c_own = own; c_open = open_ }
    | Filter (cond, input) ->
        let ci = cplan ctx outer_lay input in
        let fc = cpred ctx ci.c_layout ci.c_own cond in
        let open_ env =
          let next = ci.c_open env in
          (* a batch whose rows all pass is passed on as it is *)
          let rec pull () =
            match next () with
            | None -> None
            | Some b ->
                let n = Array.length b in
                let rec pass i = if i < n && fc env b.(i) then pass (i + 1) else i in
                let m = pass 0 in
                if m = n then Some b
                else begin
                  let kept = Array.copy b and k = ref m in
                  for i = m + 1 to n - 1 do
                    if fc env b.(i) then (
                      kept.(!k) <- b.(i);
                      incr k)
                  done;
                  if !k = 0 then pull () else Some (Array.sub kept 0 !k)
                end
          in
          pull
        in
        { ci with c_open = open_ }
    | Project (fields, input) ->
        check_distinct "projection output" (List.map snd fields);
        let ci = cplan ctx outer_lay input in
        let fs =
          Array.of_list (List.map (fun (e, _) -> cexpr ctx ci.c_layout ci.c_own e) fields)
        in
        let nf = Array.length fs in
        let lay =
          Layout.concat
            (Layout.of_list ~width:nf (List.mapi (fun i (_, n) -> (n, i)) fields))
            outer_lay
        in
        let open_ env =
          let next = ci.c_open env in
          fun () ->
            match next () with
            | None -> None
            | Some b ->
                Some
                  (Array.map
                     (fun r ->
                       let out = Array.make nf Value.Null in
                       for i = 0 to nf - 1 do
                         out.(i) <- (Array.unsafe_get fs i) env r
                       done;
                       out)
                     b)
        in
        { c_layout = lay; c_own = nf; c_open = open_ }
    | Nested_loop { outer = op; inner = ip; join_cond } ->
        let co = cplan ctx outer_lay op in
        (* the inner side is correlated on the outer side's rows: it opens
           once per outer row on that row followed by [env], and its
           layout already is the join layout (first-match-wins gives the
           inner side precedence, exactly like an association
           row's [irow @ orow]); joined rows are [irow ++ orow] *)
        let ci = cplan ctx co.c_layout ip in
        let iw = ci.c_own and ow = co.c_own in
        let fcond = Option.map (cpred ctx ci.c_layout iw) join_cond in
        let open_ env =
          flat_map_cursor default_batch_size (co.c_open env) (fun push orow ->
              let ienv = with_env ow env orow in
              let inext = ci.c_open ienv in
              let rec inner_drain () =
                match inext () with
                | None -> ()
                | Some ib ->
                    (match fcond with
                    | None -> Array.iter (fun r -> push (with_env iw orow r)) ib
                    | Some f -> Array.iter (fun r -> if f ienv r then push (with_env iw orow r)) ib);
                    inner_drain ()
              in
              inner_drain ())
        in
        { c_layout = ci.c_layout; c_own = iw + ow; c_open = open_ }
    | Hash_join { outer = op; inner = ip; keys; kind } ->
        let co = cplan ctx outer_lay op in
        (* both sides are compiled against the enclosing environment only
           (set-oriented: the build side is evaluated once per open, not
           once per probe row); key expressions resolve against their own
           side's layout *)
        let ci = cplan ctx outer_lay ip in
        let okeys =
          Array.of_list (List.map (fun (ok, _) -> cexpr ctx co.c_layout co.c_own ok) keys)
        in
        let ikeys =
          Array.of_list (List.map (fun (_, ik) -> cexpr ctx ci.c_layout ci.c_own ik) keys)
        in
        (* joined rows are the build row's own slots, then the probe row's *)
        let iw = ci.c_own and pw = co.c_own in
        let null_build = Array.make iw Value.Null in
        let lay, own =
          match kind with
          | Inner | Left_outer -> (Layout.concat (Layout.prefix ci.c_layout iw) co.c_layout, iw + pw)
          | Semi | Anti -> (co.c_layout, pw)
        in
        let open_ env =
          (* build phase: hash the whole build side on its key tuple *)
          let tbl = Hashtbl.create 64 in
          let inext = ci.c_open env in
          let rec build () =
            match inext () with
            | None -> ()
            | Some b ->
                Array.iter
                  (fun irow ->
                    (match sopt with
                    | Some s -> s.Stats.build_rows <- s.Stats.build_rows + 1
                    | None -> ());
                    let kvs = Array.map (fun f -> f env irow) ikeys in
                    if not (Array.exists Value.is_null kvs) then (
                      let key = hash_key_string kvs in
                      let cell =
                        match Hashtbl.find_opt tbl key with
                        | Some c -> c
                        | None ->
                            let c = ref [] in
                            Hashtbl.add tbl key c;
                            c
                      in
                      cell := (irow, kvs) :: !cell))
                  b;
                build ()
          in
          build ();
          Hashtbl.iter (fun _ c -> c := List.rev !c) tbl;
          let probe prow =
            let kvs = Array.map (fun f -> f env prow) okeys in
            if Array.exists Value.is_null kvs then []
            else
              match Hashtbl.find_opt tbl (hash_key_string kvs) with
              | None -> []
              | Some cell -> List.filter (fun (_, ikvs) -> hash_keys_equal kvs ikvs) !cell
          in
          let hit n =
            match sopt with
            | Some s -> s.Stats.probe_hits <- s.Stats.probe_hits + n
            | None -> ()
          in
          (* probe phase: stream the probe side in batches *)
          flat_map_cursor default_batch_size (co.c_open env) (fun push prow ->
              match kind with
              | Inner ->
                  let ms = probe prow in
                  hit (List.length ms);
                  List.iter (fun (irow, _) -> push (with_env iw prow irow)) ms
              | Left_outer -> (
                  match probe prow with
                  | [] -> push (with_env iw prow null_build)
                  | ms ->
                      hit (List.length ms);
                      List.iter (fun (irow, _) -> push (with_env iw prow irow)) ms)
              | Semi -> (
                  match probe prow with
                  | [] -> ()
                  | _ :: _ ->
                      hit 1;
                      push prow)
              | Anti -> ( match probe prow with [] -> push prow | _ :: _ -> hit 1))
        in
        { c_layout = lay; c_own = own; c_open = open_ }
    | Aggregate { group_by; aggs; input } ->
        check_distinct "aggregate output" (List.map snd group_by @ List.map snd aggs);
        let ci = cplan ctx outer_lay input in
        let gfs = List.map (fun (e, _) -> cexpr ctx ci.c_layout ci.c_own e) group_by in
        let afs = List.map (fun (a, _) -> cagg ctx sopt ci.c_layout ci.c_own a) aggs in
        let ng = List.length gfs and na = List.length afs in
        let lay =
          Layout.concat
            (Layout.of_list ~width:(ng + na)
               (List.mapi (fun i (_, n) -> (n, i)) group_by
               @ List.mapi (fun i (_, n) -> (n, ng + i)) aggs))
            outer_lay
        in
        let open_ env =
          let next = ci.c_open env in
          let make_group members key =
            let out = Array.make (ng + na) Value.Null in
            (match members with
            | m :: _ -> List.iteri (fun i gf -> out.(i) <- gf env m) gfs
            | [] -> List.iteri (fun i ks -> out.(i) <- Value.Str ks) key);
            List.iteri (fun i af -> out.(ng + i) <- af env members) afs;
            out
          in
          lazy_array_cursor default_batch_size (fun () ->
              let rows = drain_cursor next in
              if ng = 0 then [| make_group rows [] |]
              else (
                let groups = Hashtbl.create 16 in
                let order = ref [] in
                List.iter
                  (fun r ->
                    let key = List.map (fun gf -> Value.to_string (gf env r)) gfs in
                    match Hashtbl.find_opt groups key with
                    | None ->
                        order := key :: !order;
                        Hashtbl.add groups key (ref [ r ])
                    | Some cell -> cell := r :: !cell)
                  rows;
                Array.of_list
                  (List.rev_map
                     (fun key -> make_group (List.rev !(Hashtbl.find groups key)) key)
                     !order)))
        in
        { c_layout = lay; c_own = ng + na; c_open = open_ }
    | Sort (keys, input) ->
        let ci = cplan ctx outer_lay input in
        let kfs =
          Array.of_list (List.map (fun (k, _) -> cexpr ctx ci.c_layout ci.c_own k) keys)
        in
        let dirs = Array.of_list (List.map snd keys) in
        let pure = List.for_all (fun (k, _) -> subplans_of_expr k = []) keys in
        let open_ env =
          let next = ci.c_open env in
          lazy_array_cursor default_batch_size (fun () ->
              Array.of_list (order_rows sopt env kfs dirs ~pure (drain_cursor next)))
        in
        { ci with c_open = open_ }
    | Limit (n, input) ->
        let ci = cplan ctx outer_lay input in
        let open_ env =
          let next = ci.c_open env in
          lazy_array_cursor default_batch_size (fun () ->
              (* the child is materialised fully before truncating, so
                 its per-operator actual-row counts are those of its whole
                 result under EXPLAIN ANALYZE *)
              let rows = drain_cursor next in
              let rec take n = function
                | [] -> []
                | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
              in
              Array.of_list (take n rows))
        in
        { ci with c_open = open_ }
    | Values { cols; rows } ->
        check_distinct "VALUES columns" cols;
        let nc = List.length cols in
        let data =
          Array.of_list
            (List.map
               (fun vs ->
                 if List.length vs <> nc then
                   err "VALUES row arity %d does not match %d column(s)" (List.length vs) nc
                 else Array.of_list vs)
               rows)
        in
        let lay =
          Layout.concat
            (Layout.of_list ~width:nc (List.mapi (fun i c -> (c, i)) cols))
            outer_lay
        in
        let open_ _ =
          chunked_cursor ~batch:default_batch_size
            ~count:(fun () -> Array.length data)
            ~get:(Array.get data)
        in
        { c_layout = lay; c_own = nc; c_open = open_ }
  in
  match sopt with
  | None -> c
  | Some s -> { c with c_open = instrumented_open s c.c_open }

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let new_ctx ?stats ?(xml_streaming = false) ?record ~rowid db =
  {
    cdb = db;
    cstats = stats;
    cxml_streaming = xml_streaming;
    crowid = rowid;
    crecord = record;
  }

(** [compile db plan] — the plan-open pass: resolve every column
    reference to a slot, compile expressions to closures, build batch
    cursors.  [xml_streaming] makes XML constructors produce
    [Value.Xml_stream] (events on demand) instead of node trees.
    @raise Exec_error for unresolvable or ambiguous columns. *)
let compile_ctx db ?stats ?(outer = Layout.empty) ?xml_streaming ?record (p : plan) : compiled =
  let rowid = reads_rowid p in
  cplan (new_ctx ?stats ?xml_streaming ?record ~rowid db) outer p

let compile db ?stats ?outer ?xml_streaming p = compile_ctx db ?stats ?outer ?xml_streaming p

let compile_expr db (lay : Layout.t) (e : expr) : Value.t array -> Value.t =
  let f = cexpr (new_ctx ~rowid:false db) lay 0 e in
  fun env -> f env env

(** [run_arrays db plan] — compiled execution to physical rows plus their
    layout; the allocation-light entry point for hot paths. *)
let run_arrays db ?xml_streaming ?record (p : plan) : Layout.t * Value.t array list =
  let c = compile_ctx db ?xml_streaming ?record p in
  (c.c_layout, drain_cursor (c.c_open [||]))

(* ------------------------------------------------------------------ *)
(* Member recording and patching                                       *)
(* ------------------------------------------------------------------ *)

let recorder (m : Footprint.members) =
  { rtarget = m.Footprint.agg; emitter = None; current = None; recorded = []; valid = true }

let record_document rc ~doc sink buf pending = rc.current <- Some (doc, sink, buf, pending)

let recorded rc plan =
  rc.current <- None;
  match rc.emitter with
  | Some memit when rc.valid ->
      Some { mplan = plan; memit; mlock = Mutex.create (); mdocs = rc.recorded; spent = false }
  | _ -> None

(* a write of more rows than this recomputes *)
let max_patch_rows = 32

(* the collector's work for a word allocated straight in the major heap,
   as OCaml 5's pacing books it: 3(100 + o)/2o of a mark-and-sweep cycle
   of 1 + 100/(100 + o) units per heap word, for space overhead o (4 at
   the default 120) *)
let slice_work_per_word =
  let o = float_of_int (Gc.get ()).Gc.space_overhead in
  1.5 *. (100. +. o) /. o *. (1. +. (100. /. (100. +. o)))

(* the member of each row id of the driving table [tbl].  UPDATE
   overwrites rows in place, so a driving row is for the recording's
   life the very array the table holds at its rid.  Rows meet their
   members in an open-addressed table of member positions by row hash,
   compared by physical equality.  [None] when some member's row is not
   the table's *)
let rid_index tbl dm =
  let n = Array.length dm.drows in
  let rec pow2 s = if s >= 2 * n then s else pow2 (2 * s) in
  let mask = pow2 1 - 1 in
  let slots = Array.make (mask + 1) (-1) in
  for j = 0 to n - 1 do
    let p = ref (Hashtbl.hash dm.drows.(j) land mask) in
    while slots.(!p) >= 0 do
      p := (!p + 1) land mask
    done;
    slots.(!p) <- j
  done;
  let by_rid = Array.make (Table.size tbl) (-1) and found = ref 0 in
  for rid = 0 to Table.size tbl - 1 do
    let r = Table.unsafe_row tbl rid in
    let p = ref (Hashtbl.hash r land mask) in
    while slots.(!p) >= 0 && dm.drows.(slots.(!p)) != r do
      p := (!p + 1) land mask
    done;
    if slots.(!p) >= 0 then (
      by_rid.(rid) <- slots.(!p);
      incr found)
  done;
  if !found = n then Some by_rid else None

let key_index dm kcol =
  let ix = { kcol; by_value = Keys.create 16; classes = Array.make 3 0 } in
  for j = Array.length dm.drows - 1 downto 0 do
    let k = dm.drows.(j).(kcol) in
    if not (Value.is_null k) then (
      let c = key_class k in
      ix.classes.(c) <- ix.classes.(c) + 1;
      if c < 2 then
        Keys.replace ix.by_value k (j :: Option.value ~default:[] (Keys.find_opt ix.by_value k)))
  done;
  ix

(* the members whose key equals [k]; [Recompute] when some member's key
   is of another class than [k] *)
let keyed ix k =
  if Value.is_null k then []
  else
    let c = key_class k in
    if c = 2 || ix.classes.(1 - c) > 0 || ix.classes.(2) > 0 then raise Recompute
    else Option.value ~default:[] (Keys.find_opt ix.by_value k)

(* [dm]'s members the changed rows reach, ascending: a changed driving
   row its own member, found by rid; a changed row of an inner table
   the members whose driving key equals its key column's value
   (unchanged by the write).  [Recompute] when a table is neither
   driving nor keyed, or a member is not the driving table's row *)
let reached db (m : Footprint.members) changes dm =
  let driving = Database.table db m.Footprint.table in
  let by_rid () =
    match dm.by_rid with
    | Some a -> a
    | None -> (
        match rid_index driving dm with
        | Some a ->
            dm.by_rid <- Some a;
            a
        | None -> raise Recompute)
  in
  let by_key d =
    match List.assoc_opt d dm.by_key with
    | Some ix -> ix
    | None ->
        let ix = key_index dm (Table.column_pos driving d) in
        dm.by_key <- (d, ix) :: dm.by_key;
        ix
  in
  List.sort_uniq compare
    (List.concat_map
       (fun (table, rids) ->
         if table = m.Footprint.table then
           let a = by_rid () in
           List.filter_map
             (fun rid ->
               if rid >= Array.length a then raise Recompute
               else if a.(rid) < 0 then None
               else Some a.(rid))
             rids
         else
           let tbl = Database.table db table in
           List.concat_map
             (fun (c, d) ->
               let c = Table.column_pos tbl c and ix = by_key d in
               List.concat_map (fun rid -> keyed ix (Table.row tbl rid).(c)) rids)
             (match List.assoc_opt table m.Footprint.inner with
             | Some keys -> keys
             | None -> raise Recompute))
       changes)

let patch db plan (m : Footprint.members) (recorded : members) ~changes (output : string list) =
  let rows = List.fold_left (fun n (_, rids) -> n + List.length rids) 0 changes in
  if recorded.mplan != plan || rows > max_patch_rows then None
  else
    let em = recorded.memit in
    let out = Array.of_list output and written = ref 0 in
    (* the reached members first, then the document written once: the
       bytes between them blitted as they are and each re-emitted
       member's bytes in its place; then the lengths that changed *)
    let patch_doc (i, dm) =
      match reached db m changes dm with
      | [] -> ()
      | hits ->
          let fresh = Buffer.create 256 in
          let spans =
            List.map
              (fun j ->
                let at = Buffer.length fresh and sink = E.serializing_sink fresh in
                em sink dm.env dm.drows.(j);
                sink.E.finish ();
                let s0 = begin_of dm j and e0 = begin_of dm (j + 1) in
                let len = Buffer.length fresh - at in
                (j, s0, e0, at, len, len - (e0 - s0)))
              hits
          in
          let growth = List.fold_left (fun g (_, _, _, _, _, d) -> g + d) 0 spans in
          (* a wrapper over no member bytes self-closes: only a recompute
             writes that *)
          if dm.opened && dm.total + growth = 0 then raise Recompute;
          let old = out.(i) in
          let doc = Bytes.create (String.length old + growth) in
          let rec splice copied shift = function
            | [] -> Bytes.blit_string old copied doc (copied + shift) (String.length old - copied)
            | (_, s0, e0, at, len, d) :: rest ->
                Bytes.blit_string old copied doc (copied + shift) (s0 - copied);
                Buffer.blit fresh at doc (s0 + shift) len;
                splice e0 (shift + d) rest
          in
          splice 0 0 spans;
          List.iter (fun (j, _, _, _, _, d) -> if d <> 0 then grow dm.lens j d) spans;
          dm.total <- dm.total + growth;
          out.(i) <- Bytes.unsafe_to_string doc;
          written := !written + (Bytes.length doc / 8)
    in
    match
      Mutex.protect recorded.mlock (fun () ->
          if recorded.spent then raise Recompute;
          (* from here on the documents change in place: whatever the
             outcome, [recorded] no longer describes [output] *)
          recorded.spent <- true;
          List.iter patch_doc recorded.mdocs)
    with
    | () ->
        (* a patched document is allocated straight in the major heap;
           pay the collector for it now, at its own pace, so that the
           next request to cross a slice trigger (often a point write)
           does not inherit the marking *)
        if !written > 0 then
          ignore (Gc.major_slice (int_of_float (slice_work_per_word *. float_of_int !written)));
        Some (Array.to_list out, { recorded with spent = false })
    | exception Recompute -> None

let check_members (recorded : members) output =
  let out = Array.of_list output in
  let fail i fmt = Printf.ksprintf (fun s -> failwith (Printf.sprintf "document %d: %s" i s)) fmt in
  Mutex.protect recorded.mlock (fun () ->
      List.iter
        (fun (i, dm) ->
          let doc = out.(i) and n = Array.length dm.drows in
          if prefix dm.lens n <> dm.total then
            fail i "member lengths sum to %d, total says %d" (prefix dm.lens n) dm.total;
          if dm.start + dm.total > String.length doc then
            fail i "members end at %d past the document's %d bytes" (dm.start + dm.total)
              (String.length doc);
          let buf = Buffer.create 256 in
          for j = 0 to n - 1 do
            Buffer.clear buf;
            let sink = E.serializing_sink buf in
            recorded.memit sink dm.env dm.drows.(j);
            sink.E.finish ();
            let b = begin_of dm j and e = begin_of dm (j + 1) in
            if Buffer.contents buf <> String.sub doc b (e - b) then
              fail i "member %d re-emits %S, the document holds %S at [%d, %d)" j
                (Buffer.contents buf) (String.sub doc b (e - b)) b e
          done;
          List.iter
            (fun (d, ix) ->
              let classes = Array.make 3 0 in
              Array.iteri
                (fun j r ->
                  let k = r.(ix.kcol) in
                  if not (Value.is_null k) then (
                    let c = key_class k in
                    classes.(c) <- classes.(c) + 1;
                    let filed = Option.value ~default:[] (Keys.find_opt ix.by_value k) in
                    if c < 2 && not (List.mem j filed) then
                      fail i "member %d is not filed under its %s" j d))
                dm.drows;
              let filed = Keys.fold (fun _ js n -> n + List.length js) ix.by_value 0 in
              if classes <> ix.classes || filed <> classes.(0) + classes.(1) then
                fail i "the %s index counts its keys wrong" d)
            dm.by_key)
        recorded.mdocs)

let run_arrays_analyzed db ?xml_streaming (p : plan) : (Layout.t * Value.t array list) * Stats.t =
  let stats = Stats.create p in
  let c = compile db ~stats ?xml_streaming p in
  ((c.c_layout, drain_cursor (c.c_open [||])), stats)

(* an externally supplied assoc environment becomes an environment row;
   result rows get its bindings back as their tail *)
let run_assoc db ?stats (outer : row) (p : plan) : row list =
  let env = Array.of_list (List.map snd outer) in
  let c = compile db ?stats ~outer:(Layout.of_bindings (List.map fst outer)) p in
  List.map
    (fun r -> Layout.to_assoc c.c_layout (with_env c.c_own env r))
    (drain_cursor (c.c_open env))

let run db ?(outer = []) (p : plan) : row list = run_assoc db outer p

(** [run_analyzed db plan] — execute with per-operator instrumentation;
    returns the rows and the filled collector (EXPLAIN ANALYZE). *)
let run_analyzed db ?(outer = []) (p : plan) : row list * Stats.t =
  let stats = Stats.create p in
  (run_assoc db ~stats outer p, stats)

(** First column of each result row — convenient for single-column queries. *)
let run_column db ?(outer = []) p =
  List.map (function [] -> Value.Null | (_, v) :: _ -> v) (run_assoc db outer p)
