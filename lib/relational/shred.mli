(** pre|size|level ("shredded") XML storage: each document is kept as
    dense columns indexed by row, and a node's row is its pre-order
    rank, so a subtree is the slice of rows [[r, r + size r + 1)] and
    XPath axes become slices and sibling walks over rows (paper §7.4
    "tree storage"; the XPath Accelerator encoding in the pre|size|level
    form of "XQuery Join Graph Isolation" in PAPERS.md).

    {!shred} stores a document once, with no per-node record, as:

    - 32-bit columns indexed by row: [size] (the rows of the node's
      subtree below it, attributes included), the parent's row, the
      level packed with an int kind code, and a name id into the store's
      interned (prefix, uri, local) names,
    - a value column for attribute, text, comment and PI rows only (an
      element's string-value is read off the text rows of its subtree
      slice when asked, without a copy when there is one),
    - per-name postings: for each local name, the ascending rows of the
      elements and attributes carrying it.

    A node's attributes take the rows right after it, before its
    children.  Inside evaluation a node is its row (an unboxed int) in
    the document the {!env} carries.  Steps read only those structures,
    and each axis reads exactly its rows: a subtree is a slice, siblings
    are walked slice by slice, ancestors along parent links.  Two
    strategies share them:

    - {b Set-at-a-time} (axes self, child, attribute, parent, descendant,
      ancestor and their -or-self forms, under position-free
      predicates): the context node-set is an ascending row sequence,
      and a whole step is answered in one pass — a staircase merge for
      descendant (context slices covered by an earlier slice are
      skipped; each remaining slice is a range of the rows, or of the
      name's postings for a name test), an owned-row walk per context
      for child, a marked parent-chain walk for ancestor, and a
      zero-probe sort-merge pass over the rows for the common
      value-predicate shapes ([@k='v'], [child='v']).
    - {b Per-context walk} (sibling, following and preceding axes, and
      positional predicates): each context node's axis rows are read
      off the columns — owned-row walks for child and sibling axes,
      parent links for parent and ancestor, a slice of the rows for
      descendant and following, the rows before the context whose
      slices end before it for preceding — and kept when they pass the
      node test; predicates then count positions among one context's
      candidates.

    Constructs outside the relational subset raise {!Unsupported};
    {!select} then falls back to the DOM interpreter over a document
    reconstructed for that call, so answers never degrade — only speed.
    No DOM is kept: {!reconstruct}, {!subtree} and {!serialize} build
    fresh trees from the rows.  {!counters} reports how often each
    strategy ran.  The store is not visible to SQL. *)

exception Shred_error of string

exception Unsupported of string
(** A construct outside the relationally-evaluable subset. *)

type t

type doc
(** One stored document's columns; its rows are [0 .. rows - 1], row 0
    the document row. *)

type kind = Doc | Elem | Attr | Text | Comment | Pi

val create : unit -> t
(** An empty store. *)

val shred : t -> Xdb_xml.Types.node -> int
(** Decompose a document into its columns and name postings and return
    its docid (1-based).  A non-document root is wrapped in a synthetic
    document row.  The store keeps no reference to the input tree. *)

val doc_ids : t -> int list
(** Stored docids, ascending. *)

val doc : t -> int -> doc
(** @raise Shred_error for unknown ids. *)

val stats : t -> int * int
(** (documents, node rows) stored. *)

val check_invariants : t -> unit
(** Each row's slice within the rows and inside its parent's slice,
    one level down, and each row's child slices covering exactly its
    [size]; postings ascending, exactly each name's element and
    attribute rows; name ids resolving.
    @raise Shred_error naming the first violation. *)

type counter_totals = {
  batch_steps : int;  (** set-at-a-time step evaluations (one per step) *)
  rel_steps : int;  (** per-context walks (one per context node and step) *)
  dom_fallbacks : int;  (** whole-expression DOM fallbacks *)
}

val counters : t -> counter_totals
(** Execution-strategy counters since creation — the observability feed
    of [xdb_cli shred --explain] and the engine metrics.  They are the
    only state a read mutates, and they count atomically: stored
    documents never change after {!shred}, so reads may run on several
    domains at once (writers need exclusive access). *)

val reconstruct : t -> int -> Xdb_xml.Types.node
(** Rebuild the document tree from its rows (a fresh tree per call;
    each node's document order stamped with its row, so node order
    comparisons work).
    The inverse of {!shred}: reconstruct ∘ shred is deep-equal to the
    original. *)

(** {2 Rows} — [parent] is the parent's row, [-1] on the document row;
    [size] counts the rows of the subtree below the row (its
    descendants, attributes included). *)

val rows : doc -> int
val size : doc -> int -> int
val parent : doc -> int -> int
val level : doc -> int -> int
val kind : doc -> int -> kind

val qname : doc -> int -> Xdb_xml.Types.qname
(** The row's interned name: empty on document, text and comment rows,
    the target on PI rows. *)

val local : doc -> int -> string

val string_value : doc -> int -> string
(** The row's XPath string-value. *)

val children : doc -> int -> int list
(** Direct children (attributes excluded) read off the pre-ordered
    rows — O(1) per child. *)

val sibling_number : doc -> int -> int
(** [xsl:number level="single"]: 1 + the preceding siblings with the
    row's element name and namespace (1 for non-elements), counted along
    the parent's owned rows up to the row. *)

val emit_subtree : doc -> int -> (Xdb_xml.Events.event -> unit) -> unit
(** Replay the row's subtree as output events read off the rows (a
    document row replays its children) — what a streamed [xsl:copy-of]
    writes, with no DOM copy. *)

val subtree : doc -> int -> Xdb_xml.Types.node
(** A fresh DOM copy of the row's subtree built from its rows slice —
    the only materialisation the relational transform path performs
    (for [xsl:copy-of] into a tree and friends). *)

val axis_step : t -> docid:int -> int list -> Xdb_xpath.Ast.step -> int list
(** Evaluate one location step over an ascending context row set of one
    document, set-at-a-time when the axis and predicates allow it
    (per-context walks otherwise); predicates applied per the XPath
    positional rules, results merged in document order without
    duplicates.
    @raise Unsupported for constructs outside the relational subset or
    sibling/following/preceding steps from attribute contexts. *)

(** {2 Expression evaluation over rows} *)

module Smap : Map.S with type key = string

(** An XPath 1.0 value over rows — what a {!cexpr} returns and what
    variable bindings hold.  [V_rows] are ascending rows of the
    environment's document. *)
type value = V_num of float | V_str of string | V_bool of bool | V_rows of int list

val value_number : doc -> value -> float
val value_bool : value -> bool
val value_string : doc -> value -> string

(** The environment a compiled expression runs in: the document,
    variable bindings, and the XSLT [current()] row ([-1]: the context
    row). *)
type env = { doc : doc; vars : value Smap.t; current : int }

type cexpr = env -> int -> int -> int -> value
(** A compiled expression, applied to the environment, the context row
    and its proximity position and size. *)

val compile_expr : Xdb_xpath.Ast.expr -> cexpr
(** Compile an XPath expression once into closures over rows — the
    relational engine behind the shredded XSLT VM's select and test
    expressions.  Each step's axis spec and strategy (set-at-a-time or
    per-context walk), each predicate's class (sort-merge value filter,
    row-local test or positional) and each function are fixed here, so
    evaluation never dispatches on the AST.  The result holds no mutable
    state and may run on several domains at once.  Constructs outside
    the relational subset (unbound variables included) compile to code
    that raises {!Unsupported} when it runs. *)

val compile_pattern : Xdb_xpath.Pattern.t -> env -> int -> bool
(** Compile an XSLT match pattern: the right-to-left matcher of
    {!Xdb_xpath.Pattern} with parent lookups through the parent column
    and predicates as compiled expressions.
    @raise Unsupported (when run) for pattern predicates outside the
    relational subset. *)

val select : t -> docid:int -> string -> int list
(** Parse and evaluate a path expression with the document row as context
    node, returning the document's rows in document order.  Falls back
    to the (DOM) {!Xdb_xpath.Eval} interpreter over a document
    reconstructed for the call when translation raises {!Unsupported},
    mapping its nodes back to rows through their row stamps — the
    result is identical either way.
    @raise Xdb_xpath.Parser.Parse_error on malformed expressions;
    @raise Invalid_argument when the expression is not a node-set. *)

val serialize : t -> docid:int -> int list -> string list
(** Serialize each of the document's rows from a fresh {!subtree} copy
    (attributes render as [name="value"], which bare attribute nodes
    cannot via {!Xdb_xml.Serializer}) — the byte-comparison form of the
    differential tests. *)

val serialize_dom : Xdb_xml.Types.node list -> string list
(** The same rendering applied to DOM interpreter results — the other
    side of the byte comparison. *)

val batch_explain : Xdb_xpath.Ast.step -> string
(** The set-at-a-time strategy the step evaluates with (staircase sweep,
    owned-row walk, …), or why it takes the per-context walk —
    the [batch] column of [xdb_cli shred --explain]. *)
