(** Stylesheet shapes: the text of an ad-hoc stylesheet with its integer
    literals cut out, the key under which {!Registry} shares one compile
    between texts that differ only in those literals.

    A literal slot is a bare run of at most {!max_digits} digits inside
    the value of a [select="…"] or [test="…"] attribute: not inside an
    XPath string literal, and with no name character, [.] or [-] right
    before or after it.  Values that contain [&] are left whole (an
    entity or character reference could hide a quote or a digit), and
    so is any text that already mentions the reserved [xdb-p] prefix.
    The scan is textual: it also cuts a literal result element's
    [select]/[test] attribute or one in a comment; {!Pipeline.compile_template}
    finds those slots missing from the plan and the shape unshareable. *)

val max_digits : int
(** 15: every such run is an exact integer as an XPath number. *)

val cut : string -> (string * int array) option
(** [cut text] — [Some (shape, values)] when [text] has at least one
    slot: [shape] is [text] with slot [i] replaced by the variable
    reference [$xdb-p<i>] ({!Xdb_xquery.Sql_rewrite.param_var}) and
    [values.(i)] the integer it held; [None] when there is no slot. *)
