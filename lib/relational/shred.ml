(* Interval-encoded XML shredding: one pre/post numbered row per node,
   each document stored once as its pre-ordered rows array with per-name
   postings, and location steps answered over those rows (staircase
   slices and postings sweeps for descendants).  See shred.mli for the
   encoding contract. *)

module X = Xdb_xml.Types
module XA = Xdb_xpath.Ast
module AR = Xdb_xpath.Axis_range
module XE = Xdb_xpath.Eval
module XV = Xdb_xpath.Value

exception Shred_error of string
exception Unsupported of string

let err fmt = Printf.ksprintf (fun m -> raise (Shred_error m)) fmt
let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type node = {
  docid : int;
  pre : int;
  post : int;
  parent : int;
  level : int;
  kind : string;
  name : string;
  prefix : string;
  uri : string;
  value : string;
}

(* ------------------------------------------------------------------ *)
(* Handle                                                              *)
(* ------------------------------------------------------------------ *)

(* one stored document: what every step, reconstruction and copy reads *)
type doc = {
  rows : node array;  (** pre order; [rows.(0)] is the document row *)
  row_ix : int array;  (** pre → index into [rows], -1 for post-only ticks *)
  postings : (string, int array) Hashtbl.t;
      (** name → ascending [rows] indices of the elements and attributes
          carrying it *)
}

type t = {
  docs : (int, doc) Hashtbl.t;
  mutable next_docid : int;
  (* step-strategy counters: the only state a read mutates, atomic so
     reads on several domains at once lose no counts *)
  n_batch : int Atomic.t;
  n_rel : int Atomic.t;
  n_fallback : int Atomic.t;
}

let create () =
  {
    docs = Hashtbl.create 16;
    next_docid = 1;
    n_batch = Atomic.make 0;
    n_rel = Atomic.make 0;
    n_fallback = Atomic.make 0;
  }

(* ------------------------------------------------------------------ *)
(* Shredding                                                           *)
(* ------------------------------------------------------------------ *)

(* mutable only during the numbering walk: [post] is patched on exit *)
type pending = {
  p_pre : int;
  mutable p_post : int;
  p_parent : int;
  p_level : int;
  p_kind : string;
  p_name : string;
  p_prefix : string;
  p_uri : string;
  p_value : string;
}

let shred t (doc : X.node) : int =
  let docid = t.next_docid in
  let acc = ref [] (* reversed pre order *) in
  let counter = ref 0 in
  let tick () =
    let v = !counter in
    incr counter;
    v
  in
  let emit ~pre ~parent ~level ~kind ~name ~prefix ~uri ~value =
    let p =
      { p_pre = pre; p_post = pre; p_parent = parent; p_level = level; p_kind = kind;
        p_name = name; p_prefix = prefix; p_uri = uri; p_value = value }
    in
    acc := p :: !acc;
    p
  in
  (* post = pre when the node consumed no further ticks (a leaf), a fresh
     exit tick otherwise — attributes and children both count, so an
     attribute's interval always nests strictly inside its owner's *)
  let close p = p.p_post <- (if !counter = p.p_pre + 1 then p.p_pre else tick ()) in
  let rec go parent level (n : X.node) =
    match n.X.kind with
    | X.Document ->
        let pre = tick () in
        let p =
          emit ~pre ~parent ~level ~kind:"doc" ~name:"" ~prefix:"" ~uri:""
            ~value:(X.string_value n)
        in
        List.iter (go pre (level + 1)) n.X.children;
        close p
    | X.Element q ->
        let pre = tick () in
        let p =
          emit ~pre ~parent ~level ~kind:"elem" ~name:q.X.local ~prefix:q.X.prefix
            ~uri:q.X.uri ~value:(X.string_value n)
        in
        List.iter (go pre (level + 1)) n.X.attributes;
        List.iter (go pre (level + 1)) n.X.children;
        close p
    | X.Attribute (q, v) ->
        let pre = tick () in
        ignore
          (emit ~pre ~parent ~level ~kind:"attr" ~name:q.X.local ~prefix:q.X.prefix
             ~uri:q.X.uri ~value:v)
    | X.Text s ->
        ignore (emit ~pre:(tick ()) ~parent ~level ~kind:"text" ~name:"" ~prefix:"" ~uri:"" ~value:s)
    | X.Comment s ->
        ignore
          (emit ~pre:(tick ()) ~parent ~level ~kind:"comment" ~name:"" ~prefix:"" ~uri:"" ~value:s)
    | X.Pi (target, data) ->
        ignore
          (emit ~pre:(tick ()) ~parent ~level ~kind:"pi" ~name:target ~prefix:"" ~uri:""
             ~value:data)
  in
  (if X.is_document doc then go (-1) 0 doc
   else begin
     (* synthesize the document row so absolute paths anchor uniformly *)
     let pre = tick () in
     let p =
       emit ~pre ~parent:(-1) ~level:0 ~kind:"doc" ~name:"" ~prefix:"" ~uri:""
         ~value:(X.string_value doc)
     in
     go pre 1 doc;
     close p
   end);
  let rows =
    Array.of_list
      (List.rev_map
         (fun p ->
           { docid; pre = p.p_pre; post = p.p_post; parent = p.p_parent; level = p.p_level;
             kind = p.p_kind; name = p.p_name; prefix = p.p_prefix; uri = p.p_uri;
             value = p.p_value })
         !acc)
  in
  let row_ix = Array.make !counter (-1) in
  Array.iteri (fun i r -> row_ix.(r.pre) <- i) rows;
  (* postings collected back to front, so each list comes out ascending *)
  let lists = Hashtbl.create 16 in
  for i = Array.length rows - 1 downto 0 do
    let r = rows.(i) in
    if r.kind = "elem" || r.kind = "attr" then
      Hashtbl.replace lists r.name
        (i :: Option.value ~default:[] (Hashtbl.find_opt lists r.name))
  done;
  let postings = Hashtbl.create (Hashtbl.length lists) in
  Hashtbl.iter (fun name ixs -> Hashtbl.add postings name (Array.of_list ixs)) lists;
  Hashtbl.replace t.docs docid { rows; row_ix; postings };
  t.next_docid <- docid + 1;
  docid

let doc_ids t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.docs [])

let doc t docid =
  match Hashtbl.find_opt t.docs docid with
  | Some d -> d
  | None -> err "unknown docid %d" docid

let doc_node t docid = (doc t docid).rows.(0)
let stats t =
  (Hashtbl.length t.docs, Hashtbl.fold (fun _ d n -> n + Array.length d.rows) t.docs 0)

type counter_totals = { batch_steps : int; rel_steps : int; dom_fallbacks : int }

let counters t =
  {
    batch_steps = Atomic.get t.n_batch;
    rel_steps = Atomic.get t.n_rel;
    dom_fallbacks = Atomic.get t.n_fallback;
  }

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)
(* ------------------------------------------------------------------ *)

let kind_of_row r =
  match r.kind with
  | "doc" -> X.Document
  | "elem" -> X.Element (X.qname ~prefix:r.prefix ~uri:r.uri r.name)
  | "attr" -> X.Attribute (X.qname ~prefix:r.prefix ~uri:r.uri r.name, r.value)
  | "text" -> X.Text r.value
  | "comment" -> X.Comment r.value
  | "pi" -> X.Pi (r.name, r.value)
  | k -> err "unknown node kind %S" k

(* a fresh DOM copy of one row's subtree, built from the rows-array slice
   [pre .. post]; [stamp] sets each node's document order to its [pre],
   so a DOM interpreter result maps back to its row through [row_ix] *)
let build ~stamp t (r0 : node) : X.node =
  let { rows; row_ix; _ } = doc t r0.docid in
  let n = Array.length rows in
  let i = ref row_ix.(r0.pre) in
  let make r =
    let xn = X.make (kind_of_row r) in
    if stamp then xn.X.order <- r.pre;
    xn
  in
  let rec go () : X.node =
    let r = rows.(!i) in
    incr i;
    let xn = make r in
    (match r.kind with
    | "doc" | "elem" ->
        let attrs = ref [] in
        while !i < n && rows.(!i).kind = "attr" && rows.(!i).parent = r.pre do
          let an = make rows.(!i) in
          incr i;
          an.X.parent <- Some xn;
          attrs := an :: !attrs
        done;
        xn.X.attributes <- List.rev !attrs;
        let kids = ref [] in
        while !i < n && rows.(!i).pre < r.post do
          let k = go () in
          k.X.parent <- Some xn;
          kids := k :: !kids
        done;
        xn.X.children <- List.rev !kids
    | _ -> ());
    xn
  in
  go ()

let subtree t r = build ~stamp:false t r
let reconstruct t docid = build ~stamp:true t (doc_node t docid)

let row_by_pre t docid pre =
  let { rows; row_ix; _ } = doc t docid in
  if pre < 0 || pre >= Array.length row_ix then None
  else
    let ix = row_ix.(pre) in
    if ix < 0 then None else Some rows.(ix)

let parent_row t (r : node) = if r.parent < 0 then None else row_by_pre t r.docid r.parent

(* direct children (attributes included) off the pre-ordered rows array:
   first owned row sits right after the owner, each sibling starts at the
   tick after the previous subtree's last — O(1) per child *)
let iter_owned t (c : node) (f : node -> unit) =
  if c.post > c.pre then begin
    let { rows; row_ix; _ } = doc t c.docid in
    let rec go ix =
      if ix >= 0 && ix < Array.length rows then begin
        let r = rows.(ix) in
        if r.parent = c.pre then begin
          f r;
          let nxt = r.post + 1 in
          if nxt < Array.length row_ix then go row_ix.(nxt)
        end
      end
    in
    go (row_ix.(c.pre) + 1)
  end

let children t (c : node) =
  let acc = ref [] in
  iter_owned t c (fun r -> if r.kind <> "attr" then acc := r :: !acc);
  List.rev !acc

(* xsl:number level="single": 1 + the preceding siblings sharing an
   element's expanded name, counted along the parent's owned rows up to
   the row itself — no child list is built *)
let sibling_number t (r : node) =
  match parent_row t r with
  | None -> 1
  | Some p ->
      let n = ref 1 in
      (try
         iter_owned t p (fun x ->
             if x.pre = r.pre then raise_notrace Exit;
             if x.kind = "elem" && r.kind = "elem" && String.equal x.name r.name
                && String.equal x.uri r.uri
             then incr n)
       with Exit -> ());
      !n

(* a row's subtree replayed as output events straight off the rows
   array: owned attribute rows come first, so they follow their start
   tag as the event contract requires *)
let rec emit_subtree t (r : node) (emit : Xdb_xml.Events.event -> unit) =
  let module E = Xdb_xml.Events in
  match r.kind with
  | "doc" -> iter_owned t r (fun c -> emit_subtree t c emit)
  | "elem" ->
      emit (E.Start_element (X.qname ~prefix:r.prefix ~uri:r.uri r.name));
      iter_owned t r (fun c -> emit_subtree t c emit);
      emit E.End_element
  | "attr" -> emit (E.Attr (X.qname ~prefix:r.prefix ~uri:r.uri r.name, r.value))
  | "text" -> emit (E.Text r.value)
  | "comment" -> emit (E.Comment r.value)
  | "pi" -> emit (E.Pi (r.name, r.value))
  | k -> err "unknown node kind %S" k

(* ------------------------------------------------------------------ *)
(* Step evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let doc_order_cmp a b =
  let c = Int.compare a.docid b.docid in
  if c <> 0 then c else Int.compare a.pre b.pre

(* a single forward step from one context node arrives already sorted and
   distinct (the rows array is in pre = document order), so the common
   case is a linear scan that confirms order and allocates nothing *)
let doc_order_dedup rows =
  let rec strictly_sorted = function
    | a :: (b :: _ as rest) -> doc_order_cmp a b < 0 && strictly_sorted rest
    | _ -> true
  in
  if strictly_sorted rows then rows
  else
    let sorted = List.sort doc_order_cmp rows in
    let rec dedup = function
      | a :: (b :: _ as rest) when a.docid = b.docid && a.pre = b.pre -> dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup sorted

let kind_matches (kf : AR.kind_filter) (r : node) =
  match kf with
  | AR.K_elem -> r.kind = "elem"
  | AR.K_attr -> r.kind = "attr"
  | AR.K_text -> r.kind = "text"
  | AR.K_comment -> r.kind = "comment"
  | AR.K_pi -> r.kind = "pi"
  | AR.K_non_attr -> r.kind <> "attr"

(* the kind/name residual of a spec, decided on a row we already hold (the
   self axis: [pre = ctx.pre] is the context row itself, no scan needed) *)
let row_matches (spec : AR.spec) (r : node) =
  kind_matches spec.kinds r
  && match spec.name with None -> true | Some n -> String.equal r.name n

(* [row_matches] for candidate [r] of context [c]: node() also admits
   the context itself when it is an attribute (self and the -or-self
   axes, the only ones whose candidates include the context) *)
let admits (spec : AR.spec) (c : node) (r : node) =
  row_matches spec r || (spec.kinds = AR.K_non_attr && r.pre = c.pre && r.docid = c.docid)

(* does candidate [r] satisfy one interval condition against context [c] *)
let cond_holds (c : node) (r : node) { AR.col; op; anchor } =
  let x = match col with AR.Pre -> r.pre | AR.Post -> r.post | AR.Parent -> r.parent
  and y =
    match anchor with AR.Ctx_pre -> c.pre | AR.Ctx_post -> c.post | AR.Ctx_parent -> c.parent
  in
  match op with
  | AR.Eq -> x = y
  | AR.Lt -> x < y
  | AR.Leq -> x <= y
  | AR.Gt -> x > y
  | AR.Geq -> x >= y

(* the first row at or after tick [pre]: from just past a subtree, the
   ticks skipped are ancestors' exit ticks, so this is O(depth) *)
let rec row_at_or_after d pre =
  if pre >= Array.length d.row_ix then Array.length d.rows
  else if d.row_ix.(pre) >= 0 then d.row_ix.(pre)
  else row_at_or_after d (pre + 1)

(* every row an axis's conditions can hold on from context [c], in
   document order, read off the pre-ordered rows: owned-row walks for
   child and sibling axes, parent links upward, and a bounded slice of
   the rows array for descendant, following and preceding *)
let iter_axis t (axis : XA.axis) (c : node) (f : node -> unit) =
  match axis with
  | XA.Self -> f c
  | XA.Child | XA.Attribute -> iter_owned t c f
  | XA.Following_sibling | XA.Preceding_sibling ->
      Option.iter (fun p -> iter_owned t p f) (parent_row t c)
  | XA.Parent -> Option.iter f (parent_row t c)
  | XA.Ancestor | XA.Ancestor_or_self ->
      let rec up acc r = match parent_row t r with Some p -> up (p :: acc) p | None -> acc in
      List.iter f (up (if axis = XA.Ancestor_or_self then [ c ] else []) c)
  | XA.Descendant | XA.Descendant_or_self | XA.Following | XA.Preceding ->
      let d = doc t c.docid in
      let lo, hi =
        match axis with
        | XA.Following -> (row_at_or_after d (c.post + 1), Array.length d.rows)
        | XA.Preceding -> (0, d.row_ix.(c.pre))
        | _ -> (d.row_ix.(c.pre), row_at_or_after d (c.post + 1))
      in
      for i = lo to hi - 1 do
        f d.rows.(i)
      done
  | XA.Namespace -> ()

(* one step from one context row: the axis's candidates that pass its
   {!AR} conditions and the kind/name test, in proximity order *)
let step_source t (axis : XA.axis) (spec : AR.spec) (c : node) : node list =
  match axis with
  (* an attribute has no siblings (XPath 1.0 §2.2) *)
  | (XA.Following_sibling | XA.Preceding_sibling) when c.kind = "attr" -> []
  | _ ->
      Atomic.incr t.n_rel;
      let acc = ref [] in
      iter_axis t axis c (fun r ->
          if List.for_all (cond_holds c r) spec.conds && admits spec c r then acc := r :: !acc);
      if spec.reverse then !acc else List.rev !acc

(* ---- the relational expression subset (mirrors Eval/Value semantics) - *)

module Smap = XE.Smap

type value = V_num of float | V_str of string | V_bool of bool | V_rows of node list

let value_number = function
  | V_num f -> f
  | V_str s -> XV.number_of_string s
  | V_bool b -> if b then 1.0 else 0.0
  | V_rows [] -> Float.nan
  | V_rows (r :: _) -> XV.number_of_string r.value

let value_bool = function
  | V_bool b -> b
  | V_num f -> f <> 0.0 && not (Float.is_nan f)
  | V_str s -> String.length s > 0
  | V_rows rs -> rs <> []

let value_string = function
  | V_str s -> s
  | V_num f -> XV.string_value (XV.Num f)
  | V_bool b -> XV.string_value (XV.Bool b)
  | V_rows [] -> ""
  | V_rows (r :: _) -> r.value

(* the evaluation environment threaded through every step: the store,
   and from the XSLT VM [vars] and [current] ([current] stays on the
   instruction's context node while predicate evaluation moves the
   context row, mirroring Eval's context record) *)
type env = { store : t; vars : value Smap.t; current : node option }

(* a compiled expression: environment, context row, position, size *)
type cexpr = env -> node -> int -> int -> value

let base_env t = { store = t; vars = Smap.empty; current = None }

let num_cmp op x y =
  match op with
  | `Eq -> x = y
  | `Neq -> x <> y
  | `Lt -> x < y
  | `Leq -> x <= y
  | `Gt -> x > y
  | `Geq -> x >= y

let str_cmp op (x : string) (y : string) =
  match op with
  | `Eq -> String.equal x y
  | `Neq -> not (String.equal x y)
  | `Lt | `Leq | `Gt | `Geq ->
      num_cmp op (XV.number_of_string x) (XV.number_of_string y)

let flip = function
  | `Lt -> `Gt
  | `Leq -> `Geq
  | `Gt -> `Lt
  | `Geq -> `Leq
  | (`Eq | `Neq) as e -> e

let cmp_of : XA.binop -> _ = function
  | XA.Eq -> `Eq
  | XA.Neq -> `Neq
  | XA.Lt -> `Lt
  | XA.Leq -> `Leq
  | XA.Gt -> `Gt
  | XA.Geq -> `Geq
  | op -> unsupported "comparison %s" (XA.binop_name op)

(* XPath 1.0 §3.4 with node-sets existentially quantified over row
   string-values — the same decision procedure as {!XV.compare_values} *)
let pcompare op a b =
  let one_side op rs other =
    match other with
    | V_num f -> List.exists (fun r -> num_cmp op (XV.number_of_string r.value) f) rs
    | V_str s -> List.exists (fun r -> str_cmp op r.value s) rs
    | V_bool b -> num_cmp op (if rs <> [] then 1.0 else 0.0) (if b then 1.0 else 0.0)
    | V_rows _ -> assert false
  in
  match (a, b) with
  | V_rows r1, V_rows r2 ->
      List.exists (fun x -> List.exists (fun y -> str_cmp op x.value y.value) r2) r1
  | V_rows rs, other -> one_side op rs other
  | other, V_rows rs -> one_side (flip op) rs other
  | V_bool _, _ | _, V_bool _ ->
      num_cmp op (if value_bool a then 1.0 else 0.0) (if value_bool b then 1.0 else 0.0)
  | V_num _, _ | _, V_num _ -> num_cmp op (value_number a) (value_number b)
  | V_str s1, V_str s2 -> str_cmp op s1 s2

(* ------------------------------------------------------------------ *)
(* Set-at-a-time steps (structural joins over sorted contexts)          *)
(* ------------------------------------------------------------------ *)

(* Between steps a context is a sorted, duplicate-free node list (the
   doc_order_dedup invariant), i.e. an ascending sequence of (docid, pre)
   intervals — exactly what the staircase merges below exploit.  Each
   batch step costs one pass over the context instead of one walk per
   context node. *)

let batch_axis_ok : XA.axis -> bool = function
  | XA.Self | XA.Child | XA.Attribute | XA.Parent | XA.Descendant
  | XA.Descendant_or_self | XA.Ancestor | XA.Ancestor_or_self ->
      true
  | _ -> false

(* one owned-row walk per context node over the rows array;
   distinct parents own disjoint child blocks ordered like their parents,
   so the result is already in document order unless the contexts nest *)
let batch_child t (spec : AR.spec) (ctx : node list) : node list =
  let acc = ref [] in
  let nested = ref false in
  let curdoc = ref min_int and maxpost = ref min_int in
  List.iter
    (fun c ->
      if c.docid <> !curdoc then begin
        curdoc := c.docid;
        maxpost := min_int
      end
      else if c.pre < !maxpost then nested := true;
      if c.post > !maxpost then maxpost := c.post;
      iter_owned t c (fun r -> if row_matches spec r then acc := r :: !acc))
    ctx;
  let out = List.rev !acc in
  if !nested then List.sort doc_order_cmp out else out

(* name-tested descendants read the name's postings instead of the
   rows: the sweep lands only on rows already carrying the right name *)
let use_postings axis (spec : AR.spec) =
  spec.name <> None
  && (spec.kinds = AR.K_elem || spec.kinds = AR.K_attr)
  && match axis with XA.Descendant | XA.Descendant_or_self -> true | _ -> false

(* the first position of ascending [p] holding a value ≥ [x] *)
let first_geq (p : int array) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if p.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length p)

(* the staircase merge: a context interval starting inside the running
   cover is nested in an earlier context's interval, so its descendants
   were already swept — skip it.  Each maximal interval is one slice
   [lo, hi) of row indices, read straight off the rows array or, for a
   name test, off the name's postings from a binary-searched start;
   output is sorted and distinct by construction. *)
let batch_descendant t axis (spec : AR.spec) (ctx : node list) : node list =
  let skip_self = if axis = XA.Descendant_or_self then 0 else 1 in
  let name = if use_postings axis spec then spec.name else None in
  let acc = ref [] in
  let curdoc = ref min_int and cover = ref min_int in
  List.iter
    (fun c ->
      if c.docid <> !curdoc then begin
        curdoc := c.docid;
        cover := min_int
      end;
      if c.pre > !cover then begin
        let d = doc t c.docid in
        let keep i =
          let r = d.rows.(i) in
          if admits spec c r then acc := r :: !acc
        in
        let lo = d.row_ix.(c.pre) + skip_self and hi = row_at_or_after d (c.post + 1) in
        (match name with
        | None ->
            for i = lo to hi - 1 do
              keep i
            done
        | Some n -> (
            match Hashtbl.find_opt d.postings n with
            | None -> () (* name absent from the document: statically empty *)
            | Some p ->
                let j = ref (first_geq p lo) in
                while !j < Array.length p && p.(!j) < hi do
                  keep p.(!j);
                  incr j
                done));
        cover := c.post
      end)
    ctx;
  List.rev !acc

let batch_parent t (spec : AR.spec) (ctx : node list) : node list =
  let acc = ref [] in
  List.iter
    (fun c ->
      match parent_row t c with
      | Some r when row_matches spec r -> acc := r :: !acc
      | _ -> ())
    ctx;
  doc_order_dedup (List.rev !acc)

(* parent-chain walk with per-document seen marks: a walk stops at the
   first node an earlier walk marked (everything above it was marked and
   collected by that walk), so total work is bounded by rows touched,
   not |ctx| · depth *)
let batch_ancestor t axis (spec : AR.spec) (ctx : node list) : node list =
  let or_self = axis = XA.Ancestor_or_self in
  let seen : (int, Bytes.t) Hashtbl.t = Hashtbl.create 4 in
  let acc = ref [] in
  List.iter
    (fun c ->
      let marks =
        match Hashtbl.find_opt seen c.docid with
        | Some b -> b
        | None ->
            let b = Bytes.make (Array.length (doc t c.docid).row_ix) '\000' in
            Hashtbl.add seen c.docid b;
            b
      in
      let rec walk pre =
        if pre >= 0 && Bytes.get marks pre = '\000' then begin
          Bytes.set marks pre '\001';
          match row_by_pre t c.docid pre with
          | None -> ()
          | Some r ->
              if admits spec c r then acc := r :: !acc;
              walk r.parent
        end
      in
      if or_self then walk c.pre else walk c.parent)
    ctx;
  List.sort doc_order_cmp !acc

let batch_axis t axis (spec : AR.spec) (ctx : node list) : node list =
  Atomic.incr t.n_batch;
  match axis with
  | XA.Self -> List.filter (fun c -> admits spec c c) ctx
  | XA.Child | XA.Attribute -> batch_child t spec ctx
  | XA.Descendant | XA.Descendant_or_self -> batch_descendant t axis spec ctx
  | XA.Parent -> batch_parent t spec ctx
  | XA.Ancestor | XA.Ancestor_or_self -> batch_ancestor t axis spec ctx
  | _ -> assert false

(* ---- batchable predicates: position-insensitive boolean row tests --- *)

(* position()/last() at the predicate's own scope; a nested path step's
   predicates count positions among their own candidates, so the scan
   does not descend into Path steps or Filter predicates *)
let rec uses_position (e : XA.expr) =
  match e with
  | XA.Call (("position" | "last"), []) -> true
  | XA.Number _ | XA.Literal _ | XA.Var _ | XA.Path _ -> false
  | XA.Neg a -> uses_position a
  | XA.Binop (_, a, b) -> uses_position a || uses_position b
  | XA.Call (_, args) -> List.exists uses_position args
  | XA.Filter (prim, _, _) -> uses_position prim

(* a predicate whose top-level value cannot be a number is a boolean row
   test, never a positional selection (XPath §2.4) *)
let boolean_valued (e : XA.expr) =
  match e with
  | XA.Literal _ | XA.Path _ | XA.Filter _ -> true
  | XA.Binop
      ( (XA.Or | XA.And | XA.Eq | XA.Neq | XA.Lt | XA.Leq | XA.Gt | XA.Geq | XA.Union),
        _,
        _ ) ->
      true
  | XA.Call (("not" | "true" | "false" | "boolean" | "contains" | "starts-with" | "lang"), _)
    ->
      true
  | _ -> false

(* row-local boolean predicates commute with the union over context nodes
   (they depend only on the candidate row), so applying them after the
   merged step equals applying them per context node *)
let batchable_pred p = boolean_valued p && not (uses_position p)

(* the sort-merge value-predicate subset: [. cmp lit], [step] and
   [step cmp lit] for one unpredicated child/attribute step *)
let classify_pred (p : XA.expr) =
  let source = function
    | XA.Path
        {
          absolute = false;
          steps = [ ({ XA.axis = XA.Child | XA.Attribute; predicates = []; _ } as s) ];
        } ->
        Some (`Step s)
    | XA.Path
        {
          absolute = false;
          steps =
            [ { XA.axis = XA.Self; test = XA.Node_type_test XA.Any_node; predicates = [] } ];
        } ->
        Some `Self
    | _ -> None
  in
  let lit = function
    | XA.Literal s -> Some (`Str s)
    | XA.Number f -> Some (`Num f)
    | _ -> None
  in
  match p with
  | XA.Binop (op, a, b) -> (
      match op with
      | XA.Eq | XA.Neq | XA.Lt | XA.Leq | XA.Gt | XA.Geq -> (
          let cmp = cmp_of op in
          match (source a, lit b) with
          | Some src, Some l -> Some (src, Some (cmp, l))
          | _ -> (
              match (lit a, source b) with
              | Some l, Some src -> Some (src, Some (flip cmp, l))
              | _ -> None))
      | _ -> None)
  | e -> ( match source e with Some src -> Some (src, None) | None -> None)

(* the existential node-set vs literal decision of {!pcompare}, applied
   to one row's string-value *)
let lit_holds test (s : string) =
  match test with
  | None -> true
  | Some (cmp, `Str y) -> str_cmp cmp s y
  | Some (cmp, `Num f) -> num_cmp cmp (XV.number_of_string s) f

(* merge the sorted candidates against the pre-ordered rows array: each
   candidate's owned rows are a contiguous sibling walk starting right
   after it, so the whole pass is one linear merge *)
let value_pred_filter (src, test) : env -> node list -> node list =
  match src with
  | `Self -> fun _ cands -> List.filter (fun r -> lit_holds test r.value) cands
  | `Step (step : XA.step) -> (
      match AR.compile step.axis step.test with
      | None -> fun _ _ -> []
      | Some spec ->
          fun env cands ->
            List.filter
              (fun c ->
                let hit = ref false in
                iter_owned env.store c (fun r ->
                    if (not !hit) && row_matches spec r && lit_holds test r.value then
                      hit := true);
                !hit)
              cands)

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                                *)
(* ------------------------------------------------------------------ *)

(* Each expression compiles once into closures: its axis specs, step
   strategies, predicate classes, operators and functions are fixed at
   compile time, so evaluation never dispatches on the AST.  A construct
   outside the relational subset compiles to a closure that raises
   {!Unsupported} when (and only if) it runs. *)

let row_local_name (r : node) =
  match r.kind with "elem" | "attr" | "pi" -> r.name | _ -> ""

let row_qname (r : node) =
  match r.kind with
  | "elem" | "attr" -> if r.prefix = "" then r.name else r.prefix ^ ":" ^ r.name
  | _ -> row_local_name r

(* candidates arrive in proximity order, so position is [i + 1]; a
   number-valued predicate selects by position (XPath §2.4) *)
let positional_filter (p : cexpr) env cands =
  let size = List.length cands in
  List.filteri
    (fun i r ->
      match p env r (i + 1) size with V_num f -> Float.of_int (i + 1) = f | v -> value_bool v)
    cands

let rec compile_step (step : XA.step) : env -> node list -> node list =
  let axis = step.XA.axis and preds = step.XA.predicates in
  match AR.compile axis step.XA.test with
  | None -> fun _ _ -> []
  | Some spec ->
      if batch_axis_ok axis && List.for_all batchable_pred preds then
        let filters = List.map compile_batch_filter preds in
        fun env rows ->
          List.fold_left (fun cs f -> f env cs) (batch_axis env.store axis spec rows) filters
      else
        let filters = List.map (fun p -> positional_filter (compile_expr p)) preds in
        fun env rows ->
          doc_order_dedup
            (List.concat_map
               (fun r ->
                 List.fold_left (fun cs f -> f env cs) (step_source env.store axis spec r) filters)
               rows)

and compile_steps steps =
  match List.map compile_step steps with
  | [ s ] -> s
  | cs -> fun env rows -> List.fold_left (fun rows s -> s env rows) rows cs

(* a batchable predicate is a row-local boolean: the sort-merge form when
   it fits, else one evaluation per candidate at an arbitrary position
   (just checked position-insensitive) *)
and compile_batch_filter pred =
  match classify_pred pred with
  | Some vp -> value_pred_filter vp
  | None ->
      let p = compile_expr pred in
      fun env cands -> List.filter (fun r -> value_bool (p env r 1 1)) cands

and compile_expr (e : XA.expr) : cexpr =
  match e with
  | XA.Number f ->
      let v = V_num f in
      fun _ _ _ _ -> v
  | XA.Literal s ->
      let v = V_str s in
      fun _ _ _ _ -> v
  | XA.Neg a ->
      let a = compile_expr a in
      fun env r p n -> V_num (-.value_number (a env r p n))
  | XA.Var v -> (
      fun env _ _ _ ->
        match Smap.find_opt v env.vars with Some x -> x | None -> unsupported "variable $%s" v)
  | XA.Path { absolute; steps } ->
      let steps = compile_steps steps in
      if absolute then fun env r _ _ -> V_rows (steps env [ doc_node env.store r.docid ])
      else fun env r _ _ -> V_rows (steps env [ r ])
  | XA.Filter (prim, preds, steps) -> (
      let prim = compile_expr prim and steps = compile_steps steps in
      let filters = List.map (fun p -> positional_filter (compile_expr p)) preds in
      fun env r p n ->
        match prim env r p n with
        | V_rows rs -> V_rows (steps env (List.fold_left (fun cs f -> f env cs) rs filters))
        | _ -> unsupported "filter over a non-node-set")
  | XA.Binop (op, a, b) -> (
      let a = compile_expr a and b = compile_expr b in
      let arith f env r p n = V_num (f (value_number (a env r p n)) (value_number (b env r p n))) in
      match op with
      | XA.Or -> fun env r p n -> V_bool (value_bool (a env r p n) || value_bool (b env r p n))
      | XA.And -> fun env r p n -> V_bool (value_bool (a env r p n) && value_bool (b env r p n))
      | XA.Eq | XA.Neq | XA.Lt | XA.Leq | XA.Gt | XA.Geq ->
          let cmp = cmp_of op in
          fun env r p n -> V_bool (pcompare cmp (a env r p n) (b env r p n))
      | XA.Plus -> arith ( +. )
      | XA.Minus -> arith ( -. )
      | XA.Mul -> arith ( *. )
      | XA.Div -> arith ( /. )
      | XA.Mod -> arith Float.rem
      | XA.Union -> (
          fun env r p n ->
            match (a env r p n, b env r p n) with
            | V_rows x, V_rows y -> V_rows (doc_order_dedup (x @ y))
            | _ -> unsupported "union of non-node-sets"))
  | XA.Call (f, args) -> compile_call f (List.map compile_expr args)

(* the core function library over rows (same semantics as {!XE}'s, with
   node string-values read off the [value] column) *)
and compile_call f (args : cexpr list) : cexpr =
  let arg i = List.nth args i in
  let str i =
    let a = arg i in
    fun env r p n -> value_string (a env r p n)
  in
  let num i =
    let a = arg i in
    fun env r p n -> value_number (a env r p n)
  in
  let rows () =
    let a = arg 0 in
    fun env r p n ->
      match a env r p n with V_rows rs -> rs | _ -> unsupported "%s() over a non-node-set" f
  in
  let unary g =
    let x = num 0 in
    fun env r p n -> V_num (g (x env r p n))
  in
  let string_fn g =
    let s = str 0 in
    fun env r p n -> V_str (g (s env r p n))
  in
  let two g =
    let a = str 0 and b = str 1 in
    fun env r p n -> g (a env r p n) (b env r p n)
  in
  (* 0-arg: the context row; 1-arg: first node of the set, if any *)
  let target g =
    if args = [] then fun _ r _ _ -> V_str (g (Some r))
    else
      let rs = rows () in
      fun env r p n -> V_str (g (match rs env r p n with [] -> None | x :: _ -> Some x))
  in
  match (f, List.length args) with
  | "position", 0 -> fun _ _ p _ -> V_num (Float.of_int p)
  | "last", 0 -> fun _ _ _ n -> V_num (Float.of_int n)
  | "true", 0 -> fun _ _ _ _ -> V_bool true
  | "false", 0 -> fun _ _ _ _ -> V_bool false
  | "not", 1 ->
      let a = arg 0 in
      fun env r p n -> V_bool (not (value_bool (a env r p n)))
  | "boolean", 1 ->
      let a = arg 0 in
      fun env r p n -> V_bool (value_bool (a env r p n))
  | "count", 1 ->
      let rs = rows () in
      fun env r p n -> V_num (Float.of_int (List.length (rs env r p n)))
  | "string", 0 -> fun _ r _ _ -> V_str r.value
  | "string", 1 -> string_fn Fun.id
  | "concat", k when k >= 2 ->
      let ss = List.init k str in
      fun env r p n -> V_str (String.concat "" (List.map (fun s -> s env r p n) ss))
  | "starts-with", 2 -> two (fun s prefix -> V_bool (String.starts_with ~prefix s))
  | "contains", 2 -> two (fun s sub -> V_bool (XE.find_sub s sub <> None))
  | "substring-before", 2 ->
      two (fun s sub ->
          V_str (match XE.find_sub s sub with Some i -> String.sub s 0 i | None -> ""))
  | "substring-after", 2 ->
      two (fun s sub ->
          V_str
            (match XE.find_sub s sub with
            | Some i ->
                let j = i + String.length sub in
                String.sub s j (String.length s - j)
            | None -> ""))
  | "substring", 2 ->
      let s = str 0 and start = num 1 in
      fun env r p n -> V_str (XE.substring_xpath (s env r p n) (start env r p n) None)
  | "substring", 3 ->
      let s = str 0 and start = num 1 and len = num 2 in
      fun env r p n ->
        V_str (XE.substring_xpath (s env r p n) (start env r p n) (Some (len env r p n)))
  | "string-length", 0 -> fun _ r _ _ -> V_num (Float.of_int (String.length r.value))
  | "string-length", 1 ->
      let s = str 0 in
      fun env r p n -> V_num (Float.of_int (String.length (s env r p n)))
  | "normalize-space", 0 -> fun _ r _ _ -> V_str (XE.normalize_space r.value)
  | "normalize-space", 1 -> string_fn XE.normalize_space
  | "translate", 3 ->
      let s = str 0 and a = str 1 and b = str 2 in
      fun env r p n -> V_str (XE.translate_xpath (s env r p n) (a env r p n) (b env r p n))
  | "number", 0 -> fun _ r _ _ -> V_num (XV.number_of_string r.value)
  | "number", 1 -> unary Fun.id
  | "sum", 1 ->
      let rs = rows () in
      fun env r p n ->
        V_num (List.fold_left (fun acc x -> acc +. XV.number_of_string x.value) 0.0 (rs env r p n))
  | "floor", 1 -> unary Float.floor
  | "ceiling", 1 -> unary Float.ceil
  | "round", 1 -> unary XV.round_number
  | "name", (0 | 1) -> target (function None -> "" | Some x -> row_qname x)
  | "local-name", (0 | 1) -> target (function None -> "" | Some x -> row_local_name x)
  | "namespace-uri", (0 | 1) ->
      target (function Some x when x.kind = "elem" || x.kind = "attr" -> x.uri | _ -> "")
  | "current", 0 -> (
      fun env r _ _ -> match env.current with Some c -> V_rows [ c ] | None -> V_rows [ r ])
  | _ -> fun _ _ _ _ -> unsupported "function %s()" f

let axis_step t rows step = compile_step step (base_env t) rows

(* ------------------------------------------------------------------ *)
(* Match patterns over rows (the shredded transform path)               *)
(* ------------------------------------------------------------------ *)

(* Eval.test_matches on rows, decided at compile time: prefixes are
   ignored, names match on the local part *)
let row_test axis test : node -> bool =
  let principal = match axis with XA.Attribute | XA.Namespace -> "attr" | _ -> "elem" in
  match test with
  | XA.Star | XA.Prefix_star _ -> fun r -> String.equal r.kind principal
  | XA.Name_test (_, local) -> fun r -> String.equal r.kind principal && String.equal r.name local
  | XA.Node_type_test XA.Any_node -> fun _ -> true
  | XA.Node_type_test XA.Text_node -> fun r -> r.kind = "text"
  | XA.Node_type_test XA.Comment_node -> fun r -> r.kind = "comment"
  | XA.Node_type_test (XA.Pi_node None) -> fun r -> r.kind = "pi"
  | XA.Node_type_test (XA.Pi_node (Some tg)) -> fun r -> r.kind = "pi" && String.equal r.name tg

(* Pattern.predicates_hold on rows: the candidates are the siblings
   reachable from the parent by the step's axis and test, positional
   rules included *)
let row_predicates (step : XA.step) : env -> node -> bool =
  match step.XA.predicates with
  | [] -> fun _ _ -> true
  | preds ->
      let bare = compile_step { step with XA.predicates = [] } in
      let preds = List.map compile_expr preds in
      let filters = List.map positional_filter preds in
      fun env r ->
        match parent_row env.store r with
        | None -> List.for_all (fun p -> value_bool (p env r 1 1)) preds
        | Some parent ->
            let survivors = List.fold_left (fun ns f -> f env ns) (bare env [ parent ]) filters in
            List.exists (fun x -> x.docid = r.docid && x.pre = r.pre) survivors

(* the right-to-left matcher of {!Xdb_xpath.Pattern}, compiled per
   alternative: the last step tests the row, each earlier step its
   parent (a [/] link) or some ancestor (a [//] link) *)
let compile_pattern (pat : Xdb_xpath.Pattern.t) : env -> node -> bool =
  let module P = Xdb_xpath.Pattern in
  let compile_alt { P.from_root; rev_steps } =
    let anchored r = (not from_root) || r.kind = "doc" in
    let rec chain = function
      | [] -> fun _ r -> anchored r
      | ((step : XA.step), link) :: rest -> (
          let test = row_test step.XA.axis step.XA.test and preds = row_predicates step in
          match (link, rest) with
          | P.Any_ancestor, [] when not from_root -> fun env r -> test r && preds env r
          | _ ->
              let up = chain rest in
              fun env r ->
                test r && preds env r
                &&
                match parent_row env.store r with
                | None -> rest = [] && anchored r
                | Some parent -> (
                    match link with
                    | P.Direct_child -> up env parent
                    | P.Any_ancestor ->
                        let rec try_anc p =
                          up env p
                          || match parent_row env.store p with None -> false | Some gp -> try_anc gp
                        in
                        try_anc parent))
    in
    if rev_steps = [] then fun _ r -> from_root && r.kind = "doc" else chain rev_steps
  in
  match List.map compile_alt pat.P.alternatives with
  | [ m ] -> m
  | ms -> fun env r -> List.exists (fun m -> m env r) ms

(* the batch strategy a step evaluates with (CLI --explain) *)
let batch_explain (step : XA.step) =
  match AR.compile step.XA.axis step.XA.test with
  | None -> "statically empty"
  | Some spec ->
      if not (batch_axis_ok step.XA.axis) then "per-context walk (axis outside the batch subset)"
      else if not (List.for_all batchable_pred step.XA.predicates) then
        "per-context walk (positional predicate)"
      else
        let how =
          match step.XA.axis with
          | XA.Self -> "context-row filter"
          | XA.Child | XA.Attribute -> "owned-row walk over the rows array"
          | XA.Descendant | XA.Descendant_or_self ->
              if use_postings step.XA.axis spec then "staircase name-postings sweep"
              else "staircase slice of the rows array"
          | XA.Parent -> "parent map over the rows array"
          | XA.Ancestor | XA.Ancestor_or_self -> "marked parent-chain walk"
          | _ -> assert false
        in
        let preds =
          List.map
            (fun p ->
              match classify_pred p with
              | Some _ -> "sort-merge value filter"
              | None when batchable_pred p -> "row-local predicate"
              | None -> "per-candidate predicate")
            step.XA.predicates
        in
        String.concat " + " (how :: preds)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let select t ~docid expr_s =
  let root = doc_node t docid in
  try
    match Xdb_xpath.Parser.parse expr_s with
    | XA.Path { absolute = _; steps } -> compile_steps steps (base_env t) [ root ]
    | _ -> raise (Unsupported "non-path expression")
  with Unsupported _ ->
    (* outside the relational subset: answer over a freshly reconstructed
       tree and map the DOM result back through its pre stamps *)
    Atomic.incr t.n_fallback;
    let { rows; row_ix; _ } = doc t docid in
    let nodes = XE.select (XE.make_context (reconstruct t docid)) expr_s in
    List.map
      (fun (n : X.node) ->
        let ix =
          if n.X.order >= 0 && n.X.order < Array.length row_ix then row_ix.(n.X.order) else -1
        in
        if ix < 0 then err "DOM fallback produced a node outside the stored document";
        rows.(ix))
      nodes

(* ------------------------------------------------------------------ *)
(* Serialization (differential-test form)                              *)
(* ------------------------------------------------------------------ *)

(* bare attribute nodes are not serializable markup; both sides of the
   differential comparison render them as [name="value"] *)
let attr_string ~prefix ~name ~value =
  let b = Buffer.create (String.length name + String.length value + 4) in
  if prefix <> "" then (
    Buffer.add_string b prefix;
    Buffer.add_char b ':');
  Buffer.add_string b name;
  Buffer.add_string b "=\"";
  Xdb_xml.Serializer.escape_attr b value;
  Buffer.add_char b '"';
  Buffer.contents b

let serialize t nodes =
  List.map
    (fun r ->
      if r.kind = "attr" then attr_string ~prefix:r.prefix ~name:r.name ~value:r.value
      else Xdb_xml.Serializer.to_string (subtree t r))
    nodes

let serialize_dom nodes =
  List.map
    (fun (n : X.node) ->
      match n.X.kind with
      | X.Attribute (q, v) -> attr_string ~prefix:q.X.prefix ~name:q.X.local ~value:v
      | _ -> Xdb_xml.Serializer.to_string n)
    nodes
