(** Streaming output events: SAX-style result construction.

    Producers push {!event}s into a {!sink}; the {b serializing sink}
    writes markup straight into a [Buffer.t] (run-based escaping, indent
    and XML/HTML/text output-method rules, byte-identical to serializing
    the equivalent DOM), while the {b tree builder} turns the same events
    into {!Types.node} trees.  Every result-construction path in the
    system routes through this module, so output exists as a stream or as
    a DOM behind one interface. *)

exception Serialize_error of string
(** Raised for events that cannot form well-formed output: comment
    content containing ["--"] or ending with ["-"], processing-instruction
    data containing ["?>"] (XML 1.0 §2.5/§2.6), attributes arriving after
    element content, and unbalanced [End_element]s. *)

type output_method =
  | Xml  (** escaped markup, self-closing empty elements *)
  | Html  (** void elements without [/>], otherwise like XML *)
  | Text_output  (** text runs only, unescaped; markup events are ignored *)

type event =
  | Start_element of Types.qname
  | Attr of Types.qname * string
      (** must directly follow [Start_element] (before any content), or
          appear at top level where it renders as a standalone attribute *)
  | Text of string
  | Comment of string
  | Pi of string * string  (** target, data *)
  | End_element

type sink = {
  emit : event -> unit;
  finish : unit -> unit;
      (** call exactly once after the last event; validates balance and,
          for the indented serializing sink, performs the deferred render *)
}

val escape_text : Buffer.t -> string -> unit
(** Escape [<], [>] and [&] for element content. *)

val escape_attr : Buffer.t -> string -> unit
(** Escape angle brackets, ampersands, double quotes and whitespace
    (as character references) for attribute values. *)

val html_void : string list
(** HTML void elements: rendered without closing tag or [/>]. *)

val is_html_void : string -> bool

val serializing_sink : ?meth:output_method -> ?indent:bool -> Buffer.t -> sink
(** A sink serializing events into [buf].  With [indent:false] (the
    default) events stream straight to the buffer; with [indent:true]
    events buffer internally and render on [finish] (indentation needs
    child lookahead).  Defaults: [meth = Xml].
    @raise Serialize_error for ill-formed event streams (see above). *)

val content_sink : Buffer.t -> sink * (unit -> bool)
(** The streaming XML form of {!serializing_sink} (no indentation), and
    whether a start tag is still open in [buf]: written without its
    closing [>], which the next content event writes first (or the
    matching [End_element] turns into [/>]). *)

val to_string : ?meth:output_method -> ?indent:bool -> (sink -> unit) -> string
(** [to_string produce] — run [produce] against a fresh serializing sink
    and return the buffer contents ([finish] included). *)

(** {1 Tree building} *)

type builder
(** Event consumer building {!Types.node} trees — the single construction
    path shared by the XSLTVM, the XQuery evaluator and the SQL/XML
    constructors' DOM mode. *)

val tree_builder : ?merge_text:bool -> ?drop_top_attrs:bool -> unit -> builder
(** [merge_text] (default false) merges adjacent text events and drops
    empty ones — the XSLTVM's result-tree semantics; constructors keep it
    off to preserve node shapes.  [drop_top_attrs] (default false) drops
    attribute events at top level (XSLT's error recovery) instead of
    keeping them as standalone attribute nodes. *)

val builder_sink : builder -> sink
(** The builder as a {!sink} ([finish] is a no-op). *)

val builder_emit : builder -> event -> unit
(** Direct event push (avoids going through the closure record).
    @raise Serialize_error for attributes after element content or
    unbalanced [End_element]. *)

val builder_add_node : builder -> Types.node -> unit
(** Adopt an existing node (no copy) as content at the current position;
    attribute nodes follow the same placement rules as [Attr] events.
    The caller is responsible for copying shared nodes first. *)

val builder_result : builder -> Types.node list
(** The completed top-level forest, in order.
    @raise Serialize_error if elements remain open. *)

(** {1 DOM → events} *)

val emit_tree : sink -> Types.node -> unit
(** Replay a subtree as events (document nodes flatten to their
    children).  Into a tree builder this is a deep copy; into a
    serializing sink it is exactly the DOM serializer. *)

val emit_forest : sink -> Types.node list -> unit
