(** The XSLTVM: bytecode interpreter with hash-table template dispatch and
    optional trace instrumentation (paper §4.3 and [13]).  This is the
    paper's functional-evaluation baseline; with a {!trace_sink} attached
    it reports template instantiations — the partial evaluator's input. *)

exception Runtime_error of string

type trace_event =
  | Ev_enter of {
      template : int option;  (** [None] = built-in rule *)
      node : Xdb_xml.Types.node;
      site : int option;  (** apply/call site; [None] = initial/built-in *)
    }
  | Ev_exit

type trace_sink = trace_event -> unit

val sort_keyed :
  Ast.sort_spec list -> ([ `Num of float | `Str of string ] list * 'a) list -> 'a list
(** [xsl:sort] over items paired with their keys (one per spec, computed
    once): stable, numbers before strings, each key descending when its
    spec says so — shared by both XSLT VMs. *)

val transform :
  ?trace:trace_sink -> Compile.program -> Xdb_xml.Types.node -> Xdb_xml.Types.node
(** [transform prog doc] — result fragment (a document node).  With
    [?trace], the run is the §4.1 partial evaluation: value predicates are
    conservatively assumed true and every instantiation is reported. *)

val transform_to_string :
  ?trace:trace_sink -> Compile.program -> Xdb_xml.Types.node -> string
(** [transform] serialized with the stylesheet's output method. *)

val run_stylesheet :
  ?trace:trace_sink -> string -> Xdb_xml.Types.node -> Xdb_xml.Types.node
(** Parse, compile and transform in one step. *)
