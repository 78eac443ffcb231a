(** Interval-encoded ("shredded") XML storage: one relational row per XML
    node, pre/post numbered, so XPath axes become interval conditions
    over rows (paper §7.4 "tree storage"; the numbering scheme of the
    DOM-based mapping and RadegastXDB lines of work in PAPERS.md).

    A document decomposes into rows
    [(docid, pre, post, parent, level, kind, name, prefix, uri, value)],
    stored once, by {!shred}, as three per-document structures:

    - the rows array, in pre order (document order),
    - the [pre → index] map into it ([-1] on post-only exit ticks),
    - per-name postings: for each name, the ascending row indices of the
      elements and attributes carrying it.

    Steps read only those structures and decide membership with the
    interval conditions of {!Xdb_xpath.Axis_range}.  Two strategies
    share those conditions:

    - {b Set-at-a-time} (axes self, child, attribute, parent, descendant,
      ancestor and their -or-self forms, under position-free
      predicates): the context node-set is a sorted (docid, pre)
      sequence, and a whole step is answered in one pass — a staircase
      merge for descendant (context intervals covered by an earlier
      interval are skipped; each remaining interval is a slice of the
      rows array, or of the name's postings for a name test), an
      owned-row walk per context for child, a marked parent-chain walk
      for ancestor, and a zero-probe sort-merge pass over the rows array
      for the common value-predicate shapes ([@k='v'], [child='v']).
    - {b Per-context walk} (sibling, following and preceding axes, and
      positional predicates): each context node's candidates are read
      off the rows — owned-row walks for child and sibling axes, parent
      links for parent and ancestor, a bounded slice of the rows array
      for descendant, following and preceding — and kept when they pass
      the step's conditions; predicates then count positions among one
      context's candidates.

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

(** One stored node, decoded from its row.  [parent] is the parent's
    [pre], [-1] on document rows.  [kind] is one of ["doc"], ["elem"],
    ["attr"], ["text"], ["comment"], ["pi"].  [value] is the node's XPath
    string-value ([name] holds the PI target). *)
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

val create : unit -> t
(** An empty store. *)

val shred : t -> Xdb_xml.Types.node -> int
(** Decompose a document into its rows array, pre map and name postings
    and return its docid (1-based).  A non-document root is wrapped in a
    synthetic document row.  The store keeps no reference to the input
    tree. *)

val doc_ids : t -> int list
(** Stored docids, ascending. *)

val doc_node : t -> int -> node
(** The document row of [docid]. @raise Shred_error for unknown ids. *)

val stats : t -> int * int
(** (documents, node rows) stored. *)

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
    document order stamped from [pre], so node order comparisons work).
    The inverse of {!shred}: reconstruct ∘ shred is deep-equal to the
    original. *)

val children : t -> node -> node list
(** Direct children (attributes excluded) read off the pre-ordered rows
    array — O(1) per child. *)

val parent_row : t -> node -> node option
(** The parent row, [None] on document rows. *)

val sibling_number : t -> node -> int
(** [xsl:number level="single"]: 1 + the preceding siblings with the
    row's element name and namespace (1 for non-elements), counted along
    the parent's owned rows up to the row. *)

val emit_subtree : t -> node -> (Xdb_xml.Events.event -> unit) -> unit
(** Replay the row's subtree as output events read off the rows array
    (a document row replays its children) — what a streamed
    [xsl:copy-of] writes, with no DOM copy. *)

val subtree : t -> node -> Xdb_xml.Types.node
(** A fresh DOM copy of the node's subtree built from the rows-array
    slice [pre .. post] — the only materialisation the relational
    transform path performs (for [xsl:copy-of] and friends). *)

val axis_step : t -> node list -> Xdb_xpath.Ast.step -> node list
(** Evaluate one location step over a context node-set, set-at-a-time
    when the axis and predicates allow it (per-context walks otherwise);
    predicates applied per the XPath
    positional rules, results merged in document order without
    duplicates.
    @raise Unsupported for constructs outside the relational subset or
    sibling/following/preceding steps from attribute contexts. *)

(** {2 Expression evaluation over rows} *)

module Smap : Map.S with type key = string

(** An XPath 1.0 value over rows — what a {!cexpr} returns and what
    variable bindings hold. *)
type value = V_num of float | V_str of string | V_bool of bool | V_rows of node list

val value_number : value -> float
val value_bool : value -> bool
val value_string : value -> string

(** The environment a compiled expression runs in: the store, variable
    bindings, and the XSLT [current()] node ([None]: the context row). *)
type env = { store : t; vars : value Smap.t; current : node option }

type cexpr = env -> node -> int -> int -> value
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

val compile_pattern : Xdb_xpath.Pattern.t -> env -> node -> bool
(** Compile an XSLT match pattern: the right-to-left matcher of
    {!Xdb_xpath.Pattern} with parent lookups through the pre → row map
    and predicates as compiled expressions.
    @raise Unsupported (when run) for pattern predicates outside the
    relational subset. *)

val select : t -> docid:int -> string -> node list
(** Parse and evaluate a path expression with the document row as context
    node.  Falls back to the (DOM) {!Xdb_xpath.Eval} interpreter over a
    document reconstructed for the call when translation raises
    {!Unsupported}, mapping its nodes back to rows through their [pre]
    stamps — the result is identical either way, in document order.
    @raise Xdb_xpath.Parser.Parse_error on malformed expressions;
    @raise Invalid_argument when the expression is not a node-set. *)

val serialize : t -> node list -> string list
(** Serialize each result node from a fresh {!subtree} copy (attributes
    render as [name="value"], which bare attribute nodes cannot via
    {!Xdb_xml.Serializer}) — the byte-comparison form of the differential
    tests. *)

val serialize_dom : Xdb_xml.Types.node list -> string list
(** The same rendering applied to DOM interpreter results — the other
    side of the byte comparison. *)

val batch_explain : Xdb_xpath.Ast.step -> string
(** The set-at-a-time strategy the step evaluates with (staircase sweep,
    owned-row walk, …), or why it takes the per-context walk —
    the [batch] column of [xdb_cli shred --explain]. *)
