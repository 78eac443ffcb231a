(** Streaming output events: SAX-style result construction.

    Producers push {!event}s into a {!sink}.  Two standard sinks cover
    every consumer in the system:

    - the {b serializing sink} writes markup straight into a [Buffer.t]
      with run-based escaping and the XML/HTML/text output-method rules —
      byte-identical to serializing the equivalent DOM — so hot paths
      never materialise a result tree;
    - the {b tree builder} turns the same events into {!Types.node} trees
      (today's DOM), used wherever a tree is genuinely needed (the
      XSLTVM's result fragments, XQuery constructed content, differential
      tests).

    The emit core validates well-formedness at the event level: comment
    runs containing ["--"], processing-instruction data containing
    ["?>"], attributes arriving after element content and unbalanced
    [End_element]s all raise {!Serialize_error} instead of producing
    output that cannot re-parse. *)

open Types

exception Serialize_error of string

let serr fmt = Printf.ksprintf (fun m -> raise (Serialize_error m)) fmt

type output_method = Xml | Html | Text_output

type event =
  | Start_element of qname
  | Attr of qname * string
  | Text of string
  | Comment of string
  | Pi of string * string
  | End_element

type sink = { emit : event -> unit; finish : unit -> unit }

(* escaping copies runs of clean characters into the output buffer with
   [Buffer.add_substring] and only switches to entity references at the
   characters that need them — no intermediate strings, no per-character
   closure *)
let escape_text buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    match String.unsafe_get s i with
    | '<' | '>' | '&' ->
        if i > !start then Buffer.add_substring buf s !start (i - !start);
        start := i + 1;
        Buffer.add_string buf
          (match String.unsafe_get s i with
          | '<' -> "&lt;"
          | '>' -> "&gt;"
          | _ -> "&amp;")
    | _ -> ()
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start)

(* whitespace becomes character references so a re-parse's attribute-value
   normalization (XML §3.3.3) cannot fold it into spaces *)
let escape_attr buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    match String.unsafe_get s i with
    | '<' | '&' | '"' | '\t' | '\n' | '\r' ->
        if i > !start then Buffer.add_substring buf s !start (i - !start);
        start := i + 1;
        Buffer.add_string buf
          (match String.unsafe_get s i with
          | '<' -> "&lt;"
          | '&' -> "&amp;"
          | '"' -> "&quot;"
          | '\t' -> "&#9;"
          | '\n' -> "&#10;"
          | _ -> "&#13;")
    | _ -> ()
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start)

(* HTML void elements: no closing tag, no self-closing slash. *)
let html_void =
  [
    "br"; "hr"; "img"; "input"; "meta"; "link"; "area"; "base"; "col"; "embed";
    "source"; "track"; "wbr"; "param";
  ]

let is_html_void name = List.mem (String.lowercase_ascii name) html_void

(* XML 1.0 §2.5: comments may not contain "--" and may not end with "-" *)
let check_comment s =
  let n = String.length s in
  if n > 0 && String.unsafe_get s (n - 1) = '-' then
    serr "comment content may not end with '-': %S" s;
  for i = 0 to n - 2 do
    if String.unsafe_get s i = '-' && String.unsafe_get s (i + 1) = '-' then
      serr "comment content may not contain \"--\": %S" s
  done

(* XML 1.0 §2.6: PI data may not contain the closing "?>" *)
let check_pi target data =
  if target = "" then serr "processing-instruction target may not be empty";
  let n = String.length data in
  for i = 0 to n - 2 do
    if String.unsafe_get data i = '?' && String.unsafe_get data (i + 1) = '>' then
      serr "processing-instruction data may not contain \"?>\": %S" data
  done

let add_attr buf q v =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_qname q);
  Buffer.add_string buf "=\"";
  escape_attr buf v;
  Buffer.add_char buf '"'

(* ------------------------------------------------------------------ *)
(* Serializing sink, streaming form (no indentation)                   *)
(* ------------------------------------------------------------------ *)

(* The innermost start tag stays "pending" — written as [<name attrs…]
   without the closing [>] — until the first content event or the matching
   [End_element] decides between [<a>…</a>] and the empty-element form. *)
let text_streaming_sink buf =
  (* text method: only text runs reach the output; a standalone attribute
     at top level prints like the DOM serializer's *)
  let depth = ref 0 in
  let emit ev =
    match ev with
    | Start_element _ -> incr depth
    | End_element ->
        if !depth = 0 then serr "end_element without open element";
        decr depth
    | Text s -> Buffer.add_string buf s
    | Attr (q, v) -> if !depth = 0 then add_attr buf q v
    | Comment _ | Pi _ -> ()
  in
  let finish () = if !depth > 0 then serr "%d unclosed element(s) at end of output" !depth in
  { emit; finish }

let streaming_sink_pending ~meth buf =
  let stack = ref [] in
  let pending = ref false in
  let close_pending () =
    if !pending then (
      Buffer.add_char buf '>';
      pending := false)
  in
  let emit ev =
    match ev with
        | Start_element q ->
            close_pending ();
            Buffer.add_char buf '<';
            Buffer.add_string buf (string_of_qname q);
            stack := q :: !stack;
            pending := true
        | Attr (q, v) ->
            (* valid while the start tag is open, or at top level (a
               standalone attribute node in a serialized forest) *)
            if !pending || !stack = [] then add_attr buf q v
            else serr "attribute added after children"
        | Text s ->
            close_pending ();
            escape_text buf s
        | Comment s ->
            check_comment s;
            close_pending ();
            Buffer.add_string buf "<!--";
            Buffer.add_string buf s;
            Buffer.add_string buf "-->"
        | Pi (t, d) ->
            check_pi t d;
            close_pending ();
            Buffer.add_string buf "<?";
            Buffer.add_string buf t;
            if d <> "" then (
              Buffer.add_char buf ' ';
              Buffer.add_string buf d);
            Buffer.add_string buf "?>"
        | End_element -> (
            match !stack with
            | [] -> serr "end_element without open element"
            | q :: rest ->
                stack := rest;
                if !pending then (
                  pending := false;
                  match meth with
                  | Html when is_html_void q.local -> Buffer.add_char buf '>'
                  | Html ->
                      Buffer.add_string buf "></";
                      Buffer.add_string buf (string_of_qname q);
                      Buffer.add_char buf '>'
                  | Xml | Text_output -> Buffer.add_string buf "/>")
                else (
                  Buffer.add_string buf "</";
                  Buffer.add_string buf (string_of_qname q);
                  Buffer.add_char buf '>'))
  in
  let finish () =
    if !stack <> [] then serr "%d unclosed element(s) at end of output" (List.length !stack)
  in
  ({ emit; finish }, fun () -> !pending)

let streaming_sink ~meth buf = fst (streaming_sink_pending ~meth buf)
let content_sink buf = streaming_sink_pending ~meth:Xml buf

(* ------------------------------------------------------------------ *)
(* Serializing sink, indented form                                     *)
(* ------------------------------------------------------------------ *)

(* Indentation needs child lookahead (an element indents its content only
   when no text child exists), so events buffer and render at [finish].
   The rendering reproduces the DOM serializer exactly: [base] is where
   the current top-level item starts in the shared buffer, so "first
   thing this item emits" is told apart from "first thing in the buffer". *)
let render_indented ~meth buf events =
  let n = Array.length events in
  (* match Start/End pairs in one stack pass *)
  let mate = Array.make n (-1) in
  let stack = ref [] in
  Array.iteri
    (fun i ev ->
      match ev with
      | Start_element _ -> stack := i :: !stack
      | End_element -> (
          match !stack with
          | [] -> serr "end_element without open element"
          | j :: rest ->
              mate.(j) <- i;
              stack := rest)
      | _ -> ())
    events;
  if !stack <> [] then serr "%d unclosed element(s) at end of output" (List.length !stack);
  let pad ~indent ~depth ~base =
    if indent then (
      if Buffer.length buf > base then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' '))
  in
  let rec item ~indent ~depth ~base i : int =
    match events.(i) with
    | Text s ->
        escape_text buf s;
        i + 1
    | Comment s ->
        check_comment s;
        pad ~indent ~depth ~base;
        Buffer.add_string buf "<!--";
        Buffer.add_string buf s;
        Buffer.add_string buf "-->";
        i + 1
    | Pi (t, d) ->
        check_pi t d;
        pad ~indent ~depth ~base;
        Buffer.add_string buf "<?";
        Buffer.add_string buf t;
        if d <> "" then (
          Buffer.add_char buf ' ';
          Buffer.add_string buf d);
        Buffer.add_string buf "?>";
        i + 1
    | Attr (q, v) ->
        if depth = 0 then (
          add_attr buf q v;
          i + 1)
        else serr "attribute added after children"
    | End_element -> assert false (* consumed by the Start_element branch *)
    | Start_element q ->
        let j = mate.(i) in
        pad ~indent ~depth ~base;
        let name = string_of_qname q in
        Buffer.add_char buf '<';
        Buffer.add_string buf name;
        (* leading Attr events are this element's attributes *)
        let k = ref (i + 1) in
        let continue = ref true in
        while !continue && !k < j do
          match events.(!k) with
          | Attr (aq, v) ->
              add_attr buf aq v;
              incr k
          | _ -> continue := false
        done;
        let k = !k in
        if k = j then (
          (match meth with
          | Html when is_html_void q.local -> Buffer.add_char buf '>'
          | Html ->
              Buffer.add_string buf "></";
              Buffer.add_string buf name;
              Buffer.add_char buf '>'
          | Xml | Text_output -> Buffer.add_string buf "/>");
          j + 1)
        else (
          Buffer.add_char buf '>';
          (* a text child at this level disables indentation below *)
          let kids_are_elements =
            let rec scan p =
              p >= j
              ||
              match events.(p) with
              | Text _ -> false
              | Start_element _ -> scan (mate.(p) + 1)
              | _ -> scan (p + 1)
            in
            scan k
          in
          let indent' = indent && kids_are_elements in
          let p = ref k in
          while !p < j do
            p := item ~indent:indent' ~depth:(depth + 1) ~base !p
          done;
          if indent && kids_are_elements then (
            Buffer.add_char buf '\n';
            Buffer.add_string buf (String.make (2 * depth) ' '));
          Buffer.add_string buf "</";
          Buffer.add_string buf name;
          Buffer.add_char buf '>';
          j + 1)
  in
  let i = ref 0 in
  while !i < n do
    let base = Buffer.length buf in
    i := item ~indent:true ~depth:0 ~base !i
  done

let buffered_indent_sink ~meth buf =
  let rev_events = ref [] in
  let emit ev = rev_events := ev :: !rev_events in
  let finish () = render_indented ~meth buf (Array.of_list (List.rev !rev_events)) in
  { emit; finish }

let serializing_sink ?(meth = Xml) ?(indent = false) buf =
  (* the text method ignores markup entirely, so indentation never applies
     and the streaming form is always safe *)
  match meth with
  | Text_output -> text_streaming_sink buf
  | Xml | Html ->
      if indent then buffered_indent_sink ~meth buf else streaming_sink ~meth buf

let to_string ?meth ?indent (produce : sink -> unit) : string =
  let buf = Buffer.create 256 in
  let sink = serializing_sink ?meth ?indent buf in
  produce sink;
  sink.finish ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Tree builder                                                        *)
(* ------------------------------------------------------------------ *)

type frame = { f_el : node; mutable f_rev : node list }

type builder = {
  bt_merge : bool;
  bt_drop_top_attrs : bool;
  mutable bt_frames : frame list;  (** open elements, innermost first *)
  mutable bt_top : node list;  (** completed top-level nodes, reversed *)
}

let tree_builder ?(merge_text = false) ?(drop_top_attrs = false) () =
  { bt_merge = merge_text; bt_drop_top_attrs = drop_top_attrs; bt_frames = []; bt_top = [] }

let push_node b n =
  match b.bt_frames with
  | f :: _ -> f.f_rev <- n :: f.f_rev
  | [] -> b.bt_top <- n :: b.bt_top

(* attributes attach to the innermost open element while it has no content
   yet; at top level they stand alone (or drop, per XSLT's recovery) *)
let place_attr b attr_node =
  match b.bt_frames with
  | f :: _ ->
      if f.f_rev = [] then add_attribute f.f_el attr_node
      else serr "attribute added after children"
  | [] -> if b.bt_drop_top_attrs then () else b.bt_top <- attr_node :: b.bt_top

let builder_emit b ev =
  match ev with
  | Start_element q -> b.bt_frames <- { f_el = make (Element q); f_rev = [] } :: b.bt_frames
  | Attr (q, v) -> place_attr b (make (Attribute (q, v)))
  | Text s ->
      if b.bt_merge then (
        if s <> "" then
          match (match b.bt_frames with f :: _ -> f.f_rev | [] -> b.bt_top) with
          | ({ kind = Text t; _ } as tn) :: _ ->
              (* merge with the preceding text node; text nodes reaching a
                 merging builder are builder-made or freshly copied, never
                 shared, so in-place mutation is safe *)
              tn.kind <- Text (t ^ s)
          | _ -> push_node b (make (Text s)))
      else push_node b (make (Text s))
  | Comment s -> push_node b (make (Comment s))
  | Pi (t, d) -> push_node b (make (Pi (t, d)))
  | End_element -> (
      match b.bt_frames with
      | [] -> serr "end_element without open element"
      | f :: rest ->
          b.bt_frames <- rest;
          set_children f.f_el (List.rev f.f_rev);
          push_node b f.f_el)

let builder_add_node b (n : node) =
  match n.kind with Attribute _ -> place_attr b n | _ -> push_node b n

let builder_sink b = { emit = builder_emit b; finish = (fun () -> ()) }

let builder_result b =
  if b.bt_frames <> [] then
    serr "%d unclosed element(s) in constructed content" (List.length b.bt_frames);
  List.rev b.bt_top

(* ------------------------------------------------------------------ *)
(* DOM → events                                                        *)
(* ------------------------------------------------------------------ *)

let rec emit_tree sink (n : node) =
  match n.kind with
  | Document -> List.iter (emit_tree sink) n.children
  | Element q ->
      sink.emit (Start_element q);
      List.iter
        (fun a -> match a.kind with Attribute (aq, v) -> sink.emit (Attr (aq, v)) | _ -> ())
        n.attributes;
      List.iter (emit_tree sink) n.children;
      sink.emit End_element
  | Attribute (q, v) -> sink.emit (Attr (q, v))
  | Text s -> sink.emit (Text s)
  | Comment s -> sink.emit (Comment s)
  | Pi (t, d) -> sink.emit (Pi (t, d))

let emit_forest sink ns = List.iter (emit_tree sink) ns
