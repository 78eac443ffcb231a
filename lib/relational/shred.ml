(* pre|size|level XML shredding: each document stored once as dense
   columns indexed by row (a node's row is its pre-order rank) with
   interned names and per-name postings, and location steps answered
   over those rows (staircase slices and postings sweeps for
   descendants).  Inside evaluation a node is its row index in the
   document the environment carries.  See shred.mli for the encoding
   contract. *)

module X = Xdb_xml.Types
module XA = Xdb_xpath.Ast
module XE = Xdb_xpath.Eval
module XV = Xdb_xpath.Value

exception Shred_error of string
exception Unsupported of string

let err fmt = Printf.ksprintf (fun m -> raise (Shred_error m)) fmt
let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type kind = Doc | Elem | Attr | Text | Comment | Pi

let kinds = [| Doc; Elem; Attr; Text; Comment; Pi |]
let kind_code = function Doc -> 0 | Elem -> 1 | Attr -> 2 | Text -> 3 | Comment -> 4 | Pi -> 5

(* ------------------------------------------------------------------ *)
(* Columns                                                             *)
(* ------------------------------------------------------------------ *)

(* 32-bit cells in native byte order (a column never leaves the process
   that wrote it); a fresh column holds -1 everywhere *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let column n = Bytes.make (4 * n) '\255'
let cells c = Bytes.length c / 4
let set_cell c i v = set32 c (4 * i) (Int32.of_int v)

(* cell [i] of a column of [n] cells: reads check [i] against the count
   the caller keeps (the document's rows, a postings column's cells),
   which is cheaper than recomputing the column's byte length on every
   read *)
let cell n c i =
  if i < 0 || i >= n then invalid_arg "Shred.cell";
  Int32.to_int (get32u c (4 * i))
[@@inline]

type t = {
  docs : (int, doc) Hashtbl.t;
  mutable next_docid : int;
  (* the interned (prefix, uri, local) names; id 0 is the empty name of
     document, text and comment rows *)
  mutable qnames : X.qname array;
  name_ids : (X.qname, int) Hashtbl.t;
  (* step-strategy counters: the only state a read mutates, atomic so
     reads on several domains at once lose no counts *)
  n_batch : int Atomic.t;
  n_rel : int Atomic.t;
  n_fallback : int Atomic.t;
}

(* one stored document: what every step, reconstruction and copy reads *)
and doc = {
  store : t;
  n_rows : int;
  size : Bytes.t;  (** row → rows in its subtree below it, attributes included *)
  parent : Bytes.t;  (** row → parent row, -1 on the document row *)
  kind_level : Bytes.t;  (** row → kind code lor (level lsl 3) *)
  name : Bytes.t;  (** row → name id *)
  names : X.qname array;  (** the store's interned names, every id of [name] included *)
  value : string array;  (** attribute, text, comment and PI values; "" elsewhere *)
  postings : (string, Bytes.t) Hashtbl.t;
      (** local name → ascending rows of the elements and attributes carrying it *)
}

let create () =
  {
    docs = Hashtbl.create 16;
    next_docid = 1;
    qnames = Array.make 16 (X.qname "");
    name_ids = Hashtbl.create 16;
    n_batch = Atomic.make 0;
    n_rel = Atomic.make 0;
    n_fallback = Atomic.make 0;
  }

let size d i = cell d.n_rows d.size i [@@inline]
let parent d i = cell d.n_rows d.parent i [@@inline]
let kind d i = kinds.(cell d.n_rows d.kind_level i land 7) [@@inline]
let level d i = cell d.n_rows d.kind_level i lsr 3
let qname d i = d.names.(cell d.n_rows d.name i) [@@inline]
let local d i = (qname d i).X.local [@@inline]
let rows d = d.n_rows

(* one past the last row of [i]'s subtree: the subtree is the slice
   [i, i + size i + 1) *)
let subtree_end d i = i + size d i + 1 [@@inline]

(* the first text row in [j, stop), or -1 *)
let rec next_text d stop j =
  if j >= stop then -1 else if kind d j = Text then j else next_text d stop (j + 1)

(* stored for attribute, text, comment and PI rows; a document or
   element row concatenates the text rows of its subtree slice, and a
   slice holding one text row answers with that row's string *)
let string_value d i =
  match kind d i with
  | Attr | Text | Comment | Pi -> d.value.(i)
  | Doc | Elem -> (
      let stop = subtree_end d i in
      match next_text d stop (i + 1) with
      | -1 -> ""
      | first when next_text d stop (first + 1) < 0 -> d.value.(first)
      | first ->
          let b = Buffer.create 64 and j = ref first in
          while !j >= 0 do
            Buffer.add_string b d.value.(!j);
            j := next_text d stop (!j + 1)
          done;
          Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Shredding                                                           *)
(* ------------------------------------------------------------------ *)

let intern t (q : X.qname) =
  match Hashtbl.find_opt t.name_ids q with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.name_ids + 1 in
      if id = Array.length t.qnames then t.qnames <- Array.append t.qnames t.qnames;
      t.qnames.(id) <- q;
      Hashtbl.add t.name_ids q id;
      id

let shred t (root : X.node) : int =
  let docid = t.next_docid in
  (* a synthetic document row over a non-document root, so absolute paths
     anchor uniformly (the input tree is not touched) *)
  let root = if X.is_document root then root else { (X.make X.Document) with X.children = [ root ] } in
  (* sized first, so each column is allocated once at its final length *)
  let n = ref 0 in
  let rec count (x : X.node) =
    incr n;
    List.iter count x.X.attributes;
    List.iter count x.X.children
  in
  count root;
  let n = !n and col () = column !n in
  let d =
    { store = t; n_rows = n; size = col (); parent = col (); kind_level = col (); name = col ();
      names = [||]; value = Array.make n ""; postings = Hashtbl.create 1 }
  in
  let row = ref 0 in
  (* rows in pre order: a node, its attributes, then its children; its
     size (set on exit) is the rows its attributes and children took *)
  let rec go parent level (x : X.node) =
    let i = !row in
    let kind, name, value =
      match x.X.kind with
      | X.Document -> (Doc, 0, "")
      | X.Element q -> (Elem, intern t q, "")
      | X.Attribute (q, v) -> (Attr, intern t q, v)
      | X.Text s -> (Text, 0, s)
      | X.Comment s -> (Comment, 0, s)
      | X.Pi (target, data) -> (Pi, intern t (X.qname target), data)
    in
    set_cell d.parent i parent;
    set_cell d.kind_level i (kind_code kind lor (level lsl 3));
    set_cell d.name i name;
    d.value.(i) <- value;
    incr row;
    List.iter (go i (level + 1)) x.X.attributes;
    List.iter (go i (level + 1)) x.X.children;
    set_cell d.size i (!row - i - 1)
  in
  go (-1) 0 root;
  let d = { d with names = t.qnames } in
  (* postings collected back to front, so each list comes out ascending *)
  let lists = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    if kind d i = Elem || kind d i = Attr then
      let l = local d i in
      Hashtbl.replace lists l (i :: Option.value ~default:[] (Hashtbl.find_opt lists l))
  done;
  let postings = Hashtbl.create (Hashtbl.length lists) in
  Hashtbl.iter
    (fun name ixs ->
      let p = column (List.length ixs) in
      List.iteri (set_cell p) ixs;
      Hashtbl.add postings name p)
    lists;
  Hashtbl.replace t.docs docid { d with postings };
  t.next_docid <- docid + 1;
  docid

let doc_ids t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.docs [])

let doc t docid =
  match Hashtbl.find_opt t.docs docid with
  | Some d -> d
  | None -> err "unknown docid %d" docid

let stats t = (Hashtbl.length t.docs, Hashtbl.fold (fun _ d n -> n + d.n_rows) t.docs 0)

type counter_totals = { batch_steps : int; rel_steps : int; dom_fallbacks : int }

let counters t =
  {
    batch_steps = Atomic.get t.n_batch;
    rel_steps = Atomic.get t.n_rel;
    dom_fallbacks = Atomic.get t.n_fallback;
  }

(* each document's encoding invariants, checked column by column *)
let check_invariants t =
  let n_names = Hashtbl.length t.name_ids + 1 in
  Hashtbl.iter
    (fun docid d ->
      let bad fmt = Printf.ksprintf (fun m -> err "document %d: %s" docid m) fmt in
      if d.n_rows = 0 || kind d 0 <> Doc || parent d 0 <> -1 || level d 0 <> 0 then
        bad "row 0 is not a parentless document row";
      (* [owned.(p)]: the rows p's child slices cover, which must be
         exactly its size — so the slices tile it, none overlaps *)
      let owners = ref 0 and owned = Array.make d.n_rows 0 in
      for i = 0 to d.n_rows - 1 do
        if size d i < 0 || subtree_end d i > d.n_rows then bad "row %d's slice overruns the rows" i;
        let id = cell d.n_rows d.name i in
        if id < 0 || id >= min n_names (Array.length d.names) then bad "row %d names unknown id %d" i id;
        if kind d i = Elem || kind d i = Attr then incr owners;
        let p = parent d i in
        if i > 0 then
          if p < 0 || p >= i then bad "row %d has parent row %d" i p
          else if subtree_end d i > subtree_end d p then bad "row %d's slice is outside its parent's" i
          else if level d i <> level d p + 1 then bad "row %d's level is not its parent's + 1" i
          else owned.(p) <- owned.(p) + size d i + 1
      done;
      Array.iteri
        (fun i o -> if o <> size d i then bad "row %d's child slices cover %d of its %d rows" i o (size d i))
        owned;
      let named = ref 0 in
      Hashtbl.iter
        (fun name p ->
          let np = cells p in
          for j = 0 to np - 1 do
            let i = cell np p j in
            if j > 0 && i <= cell np p (j - 1) then bad "postings of %s are not ascending" name;
            if i < 0 || i >= d.n_rows || (kind d i <> Elem && kind d i <> Attr) || local d i <> name
            then bad "postings of %s list row %d" name i
          done;
          named := !named + np)
        d.postings;
      if !named <> !owners then bad "postings hold %d rows for %d named rows" !named !owners)
    t.docs

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)
(* ------------------------------------------------------------------ *)

let kind_of_row d i =
  match kind d i with
  | Doc -> X.Document
  | Elem -> X.Element (qname d i)
  | Attr -> X.Attribute (qname d i, d.value.(i))
  | Text -> X.Text d.value.(i)
  | Comment -> X.Comment d.value.(i)
  | Pi -> X.Pi (local d i, d.value.(i))

(* a fresh DOM copy of one row's subtree, built from the rows slice
   [i0 .. subtree end); [stamp] sets each node's document order to its
   row, so a DOM interpreter result maps straight back to its row *)
let build ~stamp d i0 : X.node =
  let i = ref i0 in
  let make r =
    let xn = X.make (kind_of_row d r) in
    if stamp then xn.X.order <- r;
    xn
  in
  let rec go () : X.node =
    let r = !i in
    incr i;
    let xn = make r in
    (match kind d r with
    | Doc | Elem ->
        (* the attribute rows right after an owner inside its slice are its own *)
        let stop = subtree_end d r and attrs = ref [] in
        while !i < stop && kind d !i = Attr do
          let an = make !i in
          incr i;
          an.X.parent <- Some xn;
          attrs := an :: !attrs
        done;
        xn.X.attributes <- List.rev !attrs;
        let kids = ref [] in
        while !i < stop do
          let k = go () in
          k.X.parent <- Some xn;
          kids := k :: !kids
        done;
        xn.X.children <- List.rev !kids
    | _ -> ());
    xn
  in
  go ()

let subtree d i = build ~stamp:false d i
let reconstruct t docid = build ~stamp:true (doc t docid) 0

(* the rows heading consecutive sibling slices from row [x] up to row
   [stop]: each sibling starts right after the previous one's subtree —
   O(1) per sibling *)
let rec iter_siblings d x stop (f : int -> unit) =
  if x < stop then begin
    f x;
    iter_siblings d (subtree_end d x) stop f
  end

(* direct children (attributes included): the first owned row sits
   right after the owner *)
let iter_owned d c f = iter_siblings d (c + 1) (subtree_end d c) f

(* [iter_owned] as a test, stopping at the first child [f] holds on *)
let exists_owned d c f =
  try
    iter_owned d c (fun r -> if f r then raise_notrace Exit);
    false
  with Exit -> true

let children d c =
  let acc = ref [] in
  iter_owned d c (fun r -> if kind d r <> Attr then acc := r :: !acc);
  List.rev !acc

(* xsl:number level="single": 1 + the preceding siblings sharing an
   element's expanded name, counted along the parent's owned rows up to
   the row itself — no child list is built *)
let sibling_number d r =
  let n = ref 1 and q = qname d r in
  (match parent d r with
  | p when p >= 0 && kind d r = Elem ->
      iter_siblings d (p + 1) r (fun x -> if kind d x = Elem && X.qname_equal (qname d x) q then incr n)
  | _ -> ());
  !n

(* a row's subtree replayed as output events straight off the rows:
   owned attribute rows come first, so they follow their start tag as
   the event contract requires *)
let rec emit_subtree d r (emit : Xdb_xml.Events.event -> unit) =
  let module E = Xdb_xml.Events in
  match kind d r with
  | Doc -> iter_owned d r (fun c -> emit_subtree d c emit)
  | Elem ->
      emit (E.Start_element (qname d r));
      iter_owned d r (fun c -> emit_subtree d c emit);
      emit E.End_element
  | Attr -> emit (E.Attr (qname d r, d.value.(r)))
  | Text -> emit (E.Text d.value.(r))
  | Comment -> emit (E.Comment d.value.(r))
  | Pi -> emit (E.Pi (local d r, d.value.(r)))

(* ------------------------------------------------------------------ *)
(* Step evaluation                                                     *)
(* ------------------------------------------------------------------ *)

(* a single forward step from one context node arrives already sorted and
   distinct (rows are in pre = document order), so the common case is a
   linear scan that confirms order and allocates nothing *)
let doc_order_dedup rows =
  let rec strictly_sorted = function
    | (a : int) :: (b :: _ as rest) -> a < b && strictly_sorted rest
    | _ -> true
  in
  if strictly_sorted rows then rows else List.sort_uniq Int.compare rows

(* A step's node test as a row filter: the kind codes it admits, as a
   bit set over [kind_code], and the local name (or PI target) it
   requires. *)
type spec = { mask : int; name : string option }

let bit k = 1 lsl kind_code k

(* node() on a principal-element axis: any kind but attributes — but the
   context node itself, an attribute too, on self and the -or-self axes
   (see [admits]) *)
let non_attr = 0b111111 lxor bit Attr

(* [None] when the step is statically empty: the namespace axis, or a
   node test the axis's principal kind never satisfies.  Mirrors
   [Eval.test_matches]: prefixes are ignored (no prefix environment),
   names match on the local part. *)
let compile_test (axis : XA.axis) (test : XA.node_test) : spec option =
  let principal = bit (if axis = XA.Attribute then Attr else Elem) in
  let spec mask name = Some { mask; name } in
  match (axis, test) with
  | XA.Namespace, _ -> None
  | _, (XA.Star | XA.Prefix_star _) -> spec principal None
  | _, XA.Name_test (_, local) -> spec principal (Some local)
  | XA.Attribute, XA.Node_type_test XA.Any_node -> spec principal None
  | XA.Attribute, XA.Node_type_test _ -> None
  | _, XA.Node_type_test XA.Any_node -> spec non_attr None
  | _, XA.Node_type_test XA.Text_node -> spec (bit Text) None
  | _, XA.Node_type_test XA.Comment_node -> spec (bit Comment) None
  | _, XA.Node_type_test (XA.Pi_node target) -> spec (bit Pi) target

let kind_in mask d i = (mask lsr (cell d.n_rows d.kind_level i land 7)) land 1 = 1 [@@inline]

(* the node test decided on a row we already hold *)
let row_matches spec d r =
  kind_in spec.mask d r && match spec.name with None -> true | Some n -> String.equal (local d r) n

(* [row_matches] for candidate [r] of context [c]: node() also admits
   the context itself when it is an attribute (self and the -or-self
   axes, the only ones whose candidates include the context) *)
let admits spec d c r = row_matches spec d r || (spec.mask = non_attr && r = c)

let range lo hi (f : int -> unit) =
  for i = lo to hi - 1 do
    f i
  done

(* exactly the rows on an axis from context [c], in document order,
   read off the pre-ordered rows: a subtree is the slice [c, end c),
   siblings are walked slice by slice, ancestors along parent links.
   The node test is left to the caller; attribute rows, which lie in
   their owner's slice, fail every principal-element test *)
let iter_axis d (axis : XA.axis) c f =
  match axis with
  | XA.Self -> f c
  | XA.Child | XA.Attribute -> iter_owned d c f
  | XA.Parent -> if parent d c >= 0 then f (parent d c)
  | XA.Ancestor | XA.Ancestor_or_self ->
      let rec up acc r = match parent d r with -1 -> acc | p -> up (p :: acc) p in
      List.iter f (up (if axis = XA.Ancestor_or_self then [ c ] else []) c)
  | XA.Descendant -> range (c + 1) (subtree_end d c) f
  | XA.Descendant_or_self -> range c (subtree_end d c) f
  | XA.Following -> range (subtree_end d c) d.n_rows f
  | XA.Preceding -> range 0 c (fun r -> if subtree_end d r <= c then f r)
  | XA.Following_sibling ->
      if parent d c >= 0 then iter_siblings d (subtree_end d c) (subtree_end d (parent d c)) f
  | XA.Preceding_sibling -> if parent d c >= 0 then iter_siblings d (parent d c + 1) c f
  | XA.Namespace -> ()

(* one step from one context row: the axis's rows that pass the node
   test, in proximity order *)
let step_source d (axis : XA.axis) spec c : int list =
  match axis with
  (* an attribute has no siblings (XPath 1.0 §2.2) *)
  | (XA.Following_sibling | XA.Preceding_sibling) when kind d c = Attr -> []
  | _ ->
      Atomic.incr d.store.n_rel;
      let acc = ref [] in
      iter_axis d axis c (fun r -> if admits spec d c r then acc := r :: !acc);
      if XA.is_reverse_axis axis then !acc else List.rev !acc

(* ---- the relational expression subset (mirrors Eval/Value semantics) - *)

module Smap = XE.Smap

type value = V_num of float | V_str of string | V_bool of bool | V_rows of int list

let value_number d = function
  | V_num f -> f
  | V_str s -> XV.number_of_string s
  | V_bool b -> if b then 1.0 else 0.0
  | V_rows [] -> Float.nan
  | V_rows (r :: _) -> XV.number_of_string (string_value d r)

let value_bool = function
  | V_bool b -> b
  | V_num f -> f <> 0.0 && not (Float.is_nan f)
  | V_str s -> String.length s > 0
  | V_rows rs -> rs <> []

let value_string d = function
  | V_str s -> s
  | V_num f -> XV.string_value (XV.Num f)
  | V_bool b -> XV.string_value (XV.Bool b)
  | V_rows [] -> ""
  | V_rows (r :: _) -> string_value d r

(* the evaluation environment threaded through every step: the document,
   and from the XSLT VM [vars] and [current] ([current] stays on the
   instruction's context row while predicate evaluation moves the
   context row, mirroring Eval's context record; -1 = the context row) *)
type env = { doc : doc; vars : value Smap.t; current : int }

(* a compiled expression: environment, context row, position, size *)
type cexpr = env -> int -> int -> int -> value

let base_env d = { doc = d; vars = Smap.empty; current = -1 }

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
let pcompare d op a b =
  let one_side op rs other =
    match other with
    | V_num f -> List.exists (fun r -> num_cmp op (XV.number_of_string (string_value d r)) f) rs
    | V_str s -> List.exists (fun r -> str_cmp op (string_value d r) s) rs
    | V_bool b -> num_cmp op (if rs <> [] then 1.0 else 0.0) (if b then 1.0 else 0.0)
    | V_rows _ -> assert false
  in
  match (a, b) with
  | V_rows r1, V_rows r2 ->
      List.exists
        (fun x ->
          let sx = string_value d x in
          List.exists (fun y -> str_cmp op sx (string_value d y)) r2)
        r1
  | V_rows rs, other -> one_side op rs other
  | other, V_rows rs -> one_side (flip op) rs other
  | V_bool _, _ | _, V_bool _ ->
      num_cmp op (if value_bool a then 1.0 else 0.0) (if value_bool b then 1.0 else 0.0)
  | V_num _, _ | _, V_num _ -> num_cmp op (value_number d a) (value_number d b)
  | V_str s1, V_str s2 -> str_cmp op s1 s2

(* ------------------------------------------------------------------ *)
(* Set-at-a-time steps (structural joins over sorted contexts)          *)
(* ------------------------------------------------------------------ *)

(* Between steps a context is a sorted, duplicate-free row list (the
   doc_order_dedup invariant), i.e. an ascending sequence of subtree
   slices — exactly what the staircase merges below exploit.  Each
   batch step costs one pass over the context instead of one walk per
   context node. *)

let batch_axis_ok : XA.axis -> bool = function
  | XA.Self | XA.Child | XA.Attribute | XA.Parent | XA.Descendant
  | XA.Descendant_or_self | XA.Ancestor | XA.Ancestor_or_self ->
      true
  | _ -> false

(* one owned-row walk per context node; distinct parents own disjoint
   child blocks ordered like their parents, so the result is already in
   document order unless the contexts nest *)
let batch_child d spec ctx =
  let acc = ref [] and nested = ref false and cover = ref 0 in
  List.iter
    (fun c ->
      if c < !cover then nested := true;
      cover := max !cover (subtree_end d c);
      iter_owned d c (fun r -> if row_matches spec d r then acc := r :: !acc))
    ctx;
  let out = List.rev !acc in
  if !nested then List.sort Int.compare out else out

(* name-tested descendants read the name's postings instead of the
   rows: the sweep lands only on rows already carrying the right name *)
let use_postings axis spec =
  spec.name <> None
  && (spec.mask = bit Elem || spec.mask = bit Attr)
  && match axis with XA.Descendant | XA.Descendant_or_self -> true | _ -> false

(* the first position of ascending column [p] of [n] cells holding a
   value ≥ [x] *)
let first_geq n p x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cell n p mid < x then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* the staircase merge: a context slice starting inside the running
   cover is nested in an earlier context's slice, so its descendants
   were already swept — skip it.  Each maximal slice is one range
   [lo, hi) of rows, read straight off the columns or, for a name test,
   off the name's postings from a binary-searched start; output is
   sorted and distinct by construction. *)
let batch_descendant d axis spec ctx =
  let skip_self = if axis = XA.Descendant_or_self then 0 else 1 in
  let name = if use_postings axis spec then spec.name else None in
  let acc = ref [] and cover = ref 0 in
  List.iter
    (fun c ->
      if c >= !cover then begin
        let lo = c + skip_self and hi = subtree_end d c in
        (match name with
        | None ->
            for i = lo to hi - 1 do
              if admits spec d c i then acc := i :: !acc
            done
        | Some n -> (
            match Hashtbl.find_opt d.postings n with
            | None -> () (* name absent from the document: statically empty *)
            | Some p ->
                (* a posting carries the name: only its kind is left to test *)
                let n = cells p in
                let j = ref (first_geq n p lo) in
                while !j < n && cell n p !j < hi do
                  let i = cell n p !j in
                  if kind_in spec.mask d i then acc := i :: !acc;
                  incr j
                done));
        cover := hi
      end)
    ctx;
  List.rev !acc

let batch_parent d spec ctx =
  let acc = ref [] in
  List.iter
    (fun c ->
      let p = parent d c in
      if p >= 0 && row_matches spec d p then acc := p :: !acc)
    ctx;
  doc_order_dedup (List.rev !acc)

(* parent-chain walk with seen marks: a walk stops at the first row an
   earlier walk marked (everything above it was marked and collected by
   that walk), so total work is bounded by rows touched, not
   |ctx| · depth *)
let batch_ancestor d axis spec ctx =
  let marks = Bytes.make d.n_rows '\000' and acc = ref [] in
  List.iter
    (fun c ->
      let rec walk r =
        if r >= 0 && Bytes.get marks r = '\000' then begin
          Bytes.set marks r '\001';
          if admits spec d c r then acc := r :: !acc;
          walk (parent d r)
        end
      in
      walk (if axis = XA.Ancestor_or_self then c else parent d c))
    ctx;
  List.sort Int.compare !acc

let batch_axis d axis spec ctx =
  Atomic.incr d.store.n_batch;
  match axis with
  | XA.Self -> List.filter (fun c -> admits spec d c c) ctx
  | XA.Child | XA.Attribute -> batch_child d spec ctx
  | XA.Descendant | XA.Descendant_or_self -> batch_descendant d axis spec ctx
  | XA.Parent -> batch_parent d spec ctx
  | XA.Ancestor | XA.Ancestor_or_self -> batch_ancestor d axis spec ctx
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
   to one row's string-value (read only when there is a literal) *)
let lit_holds test d r =
  match test with
  | None -> true
  | Some (cmp, `Str y) -> str_cmp cmp (string_value d r) y
  | Some (cmp, `Num f) -> num_cmp cmp (XV.number_of_string (string_value d r)) f

(* merge the sorted candidates against the pre-ordered rows: each
   candidate's owned rows are a contiguous sibling walk starting right
   after it, so the whole pass is one linear merge *)
let value_pred_filter (src, test) : env -> int list -> int list =
  match src with
  | `Self -> fun env cands -> List.filter (lit_holds test env.doc) cands
  | `Step (step : XA.step) -> (
      match compile_test step.axis step.test with
      | None -> fun _ _ -> []
      | Some spec ->
          fun { doc = d; _ } cands ->
            List.filter
              (fun c -> exists_owned d c (fun r -> row_matches spec d r && lit_holds test d r))
              cands)

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                                *)
(* ------------------------------------------------------------------ *)

(* Each expression compiles once into closures: its axis specs, step
   strategies, predicate classes, operators and functions are fixed at
   compile time, so evaluation never dispatches on the AST.  A construct
   outside the relational subset compiles to a closure that raises
   {!Unsupported} when (and only if) it runs. *)

(* candidates arrive in proximity order, so position is [i + 1]; a
   number-valued predicate selects by position (XPath §2.4) *)
let positional_filter (p : cexpr) env cands =
  let size = List.length cands in
  List.filteri
    (fun i r ->
      match p env r (i + 1) size with V_num f -> Float.of_int (i + 1) = f | v -> value_bool v)
    cands

let rec compile_step (step : XA.step) : env -> int list -> int list =
  let axis = step.XA.axis and preds = step.XA.predicates in
  match compile_test axis step.XA.test with
  | None -> fun _ _ -> []
  | Some spec ->
      if batch_axis_ok axis && List.for_all batchable_pred preds then
        let filters = List.map compile_batch_filter preds in
        fun env rows ->
          List.fold_left (fun cs f -> f env cs) (batch_axis env.doc axis spec rows) filters
      else
        let filters = List.map (fun p -> positional_filter (compile_expr p)) preds in
        fun env rows ->
          doc_order_dedup
            (List.concat_map
               (fun r ->
                 List.fold_left (fun cs f -> f env cs) (step_source env.doc axis spec r) filters)
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
      fun env r p n -> V_num (-.value_number env.doc (a env r p n))
  | XA.Var v -> (
      fun env _ _ _ ->
        match Smap.find_opt v env.vars with Some x -> x | None -> unsupported "variable $%s" v)
  | XA.Path { absolute; steps } ->
      let steps = compile_steps steps in
      (* row 0 is the document row *)
      if absolute then fun env _ _ _ -> V_rows (steps env [ 0 ])
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
      let arith f env r p n =
        V_num (f (value_number env.doc (a env r p n)) (value_number env.doc (b env r p n)))
      in
      match op with
      | XA.Or -> fun env r p n -> V_bool (value_bool (a env r p n) || value_bool (b env r p n))
      | XA.And -> fun env r p n -> V_bool (value_bool (a env r p n) && value_bool (b env r p n))
      | XA.Eq | XA.Neq | XA.Lt | XA.Leq | XA.Gt | XA.Geq ->
          let cmp = cmp_of op in
          fun env r p n -> V_bool (pcompare env.doc cmp (a env r p n) (b env r p n))
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
   node string-values read off the rows) *)
and compile_call f (args : cexpr list) : cexpr =
  let arg i = List.nth args i in
  let str i =
    let a = arg i in
    fun env r p n -> value_string env.doc (a env r p n)
  in
  let num i =
    let a = arg i in
    fun env r p n -> value_number env.doc (a env r p n)
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
    if args = [] then fun env r _ _ -> V_str (g env.doc r)
    else
      let rs = rows () in
      fun env r p n -> V_str (match rs env r p n with [] -> "" | x :: _ -> g env.doc x)
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
  | "string", 0 -> fun env r _ _ -> V_str (string_value env.doc r)
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
  | "string-length", 0 ->
      fun env r _ _ -> V_num (Float.of_int (String.length (string_value env.doc r)))
  | "string-length", 1 ->
      let s = str 0 in
      fun env r p n -> V_num (Float.of_int (String.length (s env r p n)))
  | "normalize-space", 0 -> fun env r _ _ -> V_str (XE.normalize_space (string_value env.doc r))
  | "normalize-space", 1 -> string_fn XE.normalize_space
  | "translate", 3 ->
      let s = str 0 and a = str 1 and b = str 2 in
      fun env r p n -> V_str (XE.translate_xpath (s env r p n) (a env r p n) (b env r p n))
  | "number", 0 -> fun env r _ _ -> V_num (XV.number_of_string (string_value env.doc r))
  | "number", 1 -> unary Fun.id
  | "sum", 1 ->
      let rs = rows () in
      fun env r p n ->
        V_num
          (List.fold_left
             (fun acc x -> acc +. XV.number_of_string (string_value env.doc x))
             0.0 (rs env r p n))
  | "floor", 1 -> unary Float.floor
  | "ceiling", 1 -> unary Float.ceil
  | "round", 1 -> unary XV.round_number
  (* an unnamed row's name is the empty name; a PI's is its target *)
  | "name", (0 | 1) -> target (fun d x -> X.string_of_qname (qname d x))
  | "local-name", (0 | 1) -> target local
  | "namespace-uri", (0 | 1) -> target (fun d x -> (qname d x).X.uri)
  | "current", 0 -> fun env r _ _ -> V_rows [ (if env.current < 0 then r else env.current) ]
  | _ -> fun _ _ _ _ -> unsupported "function %s()" f

let axis_step t ~docid rows step = compile_step step (base_env (doc t docid)) rows

(* ------------------------------------------------------------------ *)
(* Match patterns over rows (the shredded transform path)               *)
(* ------------------------------------------------------------------ *)

(* Eval.test_matches on rows, decided at compile time: prefixes are
   ignored, names match on the local part *)
let row_test axis test : doc -> int -> bool =
  let principal = match axis with XA.Attribute | XA.Namespace -> Attr | _ -> Elem in
  let is k d r = kind d r = k in
  match test with
  | XA.Star | XA.Prefix_star _ -> is principal
  | XA.Name_test (_, l) -> fun d r -> kind d r = principal && String.equal (local d r) l
  | XA.Node_type_test XA.Any_node -> fun _ _ -> true
  | XA.Node_type_test XA.Text_node -> is Text
  | XA.Node_type_test XA.Comment_node -> is Comment
  | XA.Node_type_test (XA.Pi_node None) -> is Pi
  | XA.Node_type_test (XA.Pi_node (Some tg)) -> fun d r -> kind d r = Pi && String.equal (local d r) tg

(* Pattern.predicates_hold on rows: the candidates are the siblings
   reachable from the parent by the step's axis and test, positional
   rules included *)
let row_predicates (step : XA.step) : env -> int -> bool =
  match step.XA.predicates with
  | [] -> fun _ _ -> true
  | preds ->
      let bare = compile_step { step with XA.predicates = [] } in
      let preds = List.map compile_expr preds in
      let filters = List.map positional_filter preds in
      fun env r ->
        match parent env.doc r with
        | -1 -> List.for_all (fun p -> value_bool (p env r 1 1)) preds
        | p -> List.exists (Int.equal r) (List.fold_left (fun ns f -> f env ns) (bare env [ p ]) filters)

(* the right-to-left matcher of {!Xdb_xpath.Pattern}, compiled per
   alternative: the last step tests the row, each earlier step its
   parent (a [/] link) or some ancestor (a [//] link) *)
let compile_pattern (pat : Xdb_xpath.Pattern.t) : env -> int -> bool =
  let module P = Xdb_xpath.Pattern in
  let compile_alt { P.from_root; rev_steps } =
    let anchored d r = (not from_root) || kind d r = Doc in
    let rec chain = function
      | [] -> fun env r -> anchored env.doc r
      | ((step : XA.step), link) :: rest -> (
          let test = row_test step.XA.axis step.XA.test and preds = row_predicates step in
          match (link, rest) with
          | P.Any_ancestor, [] when not from_root -> fun env r -> test env.doc r && preds env r
          | _ ->
              let up = chain rest in
              fun env r ->
                test env.doc r && preds env r
                &&
                match parent env.doc r with
                | -1 -> rest = [] && anchored env.doc r
                | p -> (
                    match link with
                    | P.Direct_child -> up env p
                    | P.Any_ancestor ->
                        let rec try_anc p =
                          up env p || match parent env.doc p with -1 -> false | gp -> try_anc gp
                        in
                        try_anc p))
    in
    if rev_steps = [] then fun env r -> from_root && kind env.doc r = Doc else chain rev_steps
  in
  match List.map compile_alt pat.P.alternatives with
  | [ m ] -> m
  | ms -> fun env r -> List.exists (fun m -> m env r) ms

(* the batch strategy a step evaluates with (CLI --explain) *)
let batch_explain (step : XA.step) =
  match compile_test step.XA.axis step.XA.test with
  | None -> "statically empty"
  | Some spec ->
      if not (batch_axis_ok step.XA.axis) then "per-context walk (axis outside the batch subset)"
      else if not (List.for_all batchable_pred step.XA.predicates) then
        "per-context walk (positional predicate)"
      else
        let how =
          match step.XA.axis with
          | XA.Self -> "context-row filter"
          | XA.Child | XA.Attribute -> "owned-row walk over the row columns"
          | XA.Descendant | XA.Descendant_or_self ->
              if use_postings step.XA.axis spec then "staircase name-postings sweep"
              else "staircase slice of the row columns"
          | XA.Parent -> "parent map over the row columns"
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
  let d = doc t docid in
  try
    match Xdb_xpath.Parser.parse expr_s with
    | XA.Path { absolute = _; steps } -> compile_steps steps (base_env d) [ 0 ]
    | _ -> raise (Unsupported "non-path expression")
  with Unsupported _ ->
    (* outside the relational subset: answer over a freshly reconstructed
       tree and map the DOM result back through its row stamps *)
    Atomic.incr t.n_fallback;
    let nodes = XE.select (XE.make_context (reconstruct t docid)) expr_s in
    List.map
      (fun (n : X.node) ->
        let r = n.X.order in
        if r < 0 || r >= d.n_rows then err "DOM fallback produced a node outside the stored document";
        r)
      nodes

(* ------------------------------------------------------------------ *)
(* Serialization (differential-test form)                              *)
(* ------------------------------------------------------------------ *)

(* bare attribute nodes are not serializable markup; both sides of the
   differential comparison render them as [name="value"] *)
let attr_string (q : X.qname) value =
  let b = Buffer.create (String.length q.X.local + String.length value + 4) in
  Buffer.add_string b (X.string_of_qname q);
  Buffer.add_string b "=\"";
  Xdb_xml.Serializer.escape_attr b value;
  Buffer.add_char b '"';
  Buffer.contents b

let serialize t ~docid rows =
  let d = doc t docid in
  List.map
    (fun r ->
      if kind d r = Attr then attr_string (qname d r) d.value.(r)
      else Xdb_xml.Serializer.to_string (subtree d r))
    rows

let serialize_dom nodes =
  List.map
    (fun (n : X.node) ->
      match n.X.kind with
      | X.Attribute (q, v) -> attr_string q v
      | _ -> Xdb_xml.Serializer.to_string n)
    nodes
