(* The shredded XSLTVM, compiled once per stylesheet into closures over
   node rows (row indices into one document's columns), its top-level
   result streamed into the serializer.  See shred_vm.mli for the
   contract. *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
module XA = Xdb_xpath.Ast
module SH = Xdb_rel.Shred
module C = Xdb_xslt.Compile
module Ast = Xdb_xslt.Ast
module Smap = SH.Smap

exception Fallback of string

let fallback fmt = Printf.ksprintf (fun m -> raise (Fallback m)) fmt
let err fmt = Printf.ksprintf (fun m -> raise (Xdb_xslt.Vm.Runtime_error m)) fmt
let max_recursion = 2000

(* a variable's value: a shredded XPath value, or a constructed result
   fragment (xsl:variable with content).  Fragments have no rows, so an
   expression referencing one leaves the relational subset — the binding
   is withheld from the compiled expressions' environment and the
   resulting unbound-variable {!SH.Unsupported} triggers the
   per-document DOM fallback; only whole-variable references
   ([select="$v"]) pass fragments through. *)
type vval = V_shred of SH.value | V_frag of X.node

(* the top-level result on its way into the serializer, under the
   merging tree builder's rules: attributes collect on the open start
   tag (a repeated name replaces the earlier one and moves last), and
   attributes at top level are dropped *)
type stream = {
  sink : E.sink;
  mutable depth : int;
  mutable open_tag : X.qname option;  (** start tag still taking attributes *)
  mutable attrs : (X.qname * string) list;  (** its attributes, reversed *)
}

type out = Stream of stream | Tree of E.builder

(* one run's state; the compiled program holds none, so pool domains
   share it *)
type st = { doc : SH.doc; templates : template array; mutable out : out; mutable recursion : int }

and ctx = {
  row : int;
  position : int;
  size : int;
  vars : SH.value Smap.t;  (** relational bindings: what compiled expressions see *)
  frags : X.node Smap.t;  (** fragment bindings (a name is in at most one map) *)
  mode : dispatch;
}

(* one mode's candidates, best first *)
and dispatch = {
  by_name : (string, cand list) Hashtbl.t;  (** elements and attributes of that name *)
  other_names : cand list;
  text : cand list;
  comment : cand list;
  pi : cand list;
  root : cand list;
}

and cand = { matches : SH.env -> int -> bool; template : int }
and template = { params : (string * (st -> ctx -> vval) option) list; body : st -> ctx -> unit }

type program = {
  bytecode : C.program;
  unsupported : string option;  (** why every document falls back *)
  templates : template array;
  default_mode : dispatch;
  globals : (string * (st -> ctx -> vval)) list;
}

let bytecode p = p.bytecode

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let flush s =
  match s.open_tag with
  | None -> ()
  | Some q ->
      s.open_tag <- None;
      s.sink.emit (E.Start_element q);
      List.iter (fun (q, v) -> s.sink.emit (E.Attr (q, v))) (List.rev s.attrs);
      s.attrs <- []

let stream_emit s ev =
  match ev with
  | E.Attr (q, v) -> (
      match s.open_tag with
      | Some _ -> s.attrs <- (q, v) :: List.filter (fun (a, _) -> not (X.qname_equal a q)) s.attrs
      | None -> if s.depth > 0 then err "attribute added after children")
  | E.Start_element q ->
      flush s;
      s.open_tag <- Some q;
      s.depth <- s.depth + 1
  | E.End_element ->
      flush s;
      s.depth <- s.depth - 1;
      s.sink.emit ev
  | E.Text _ | E.Comment _ | E.Pi _ ->
      flush s;
      s.sink.emit ev

let builder_do f = try f () with E.Serialize_error m -> err "%s" m

(* an instruction's event: empty text vanishes, as in the merging builder *)
let emit st ev =
  match st.out with
  | Tree b -> builder_do (fun () -> E.builder_emit b ev)
  | Stream s -> ( match ev with E.Text "" -> () | _ -> stream_emit s ev)

(* copies keep their nodes as they are: no text merging, no dropping *)
let copy_row st r =
  match st.out with
  | Tree b ->
      let add r = builder_do (fun () -> E.builder_add_node b (SH.subtree st.doc r)) in
      if SH.kind st.doc r = SH.Doc then List.iter add (SH.children st.doc r) else add r
  | Stream s -> SH.emit_subtree st.doc r (stream_emit s)

let copy_node st n =
  match st.out with
  | Tree b -> builder_do (fun () -> E.builder_add_node b (X.deep_copy n))
  | Stream s -> E.emit_tree { E.emit = stream_emit s; finish = ignore } n

(* [body] run into a fresh merging tree builder *)
let fragment st ctx body =
  let saved = st.out in
  let b = E.tree_builder ~merge_text:true ~drop_top_attrs:true () in
  st.out <- Tree b;
  body st ctx;
  st.out <- saved;
  let frag = X.make X.Document in
  X.set_children frag (E.builder_result b);
  frag

let fragment_string st ctx body = X.string_value (fragment st ctx body)

(* ------------------------------------------------------------------ *)
(* Template dispatch                                                   *)
(* ------------------------------------------------------------------ *)

let bind ctx name = function
  | V_shred v -> { ctx with vars = Smap.add name v ctx.vars; frags = Smap.remove name ctx.frags }
  | V_frag f -> { ctx with frags = Smap.add name f ctx.frags; vars = Smap.remove name ctx.vars }

let candidates st d r =
  match SH.kind st.doc r with
  | SH.Elem | SH.Attr -> (
      match Hashtbl.find_opt d.by_name (SH.local st.doc r) with
      | Some cs -> cs
      | None -> d.other_names)
  | SH.Text -> d.text
  | SH.Comment -> d.comment
  | SH.Pi -> d.pi
  | SH.Doc -> d.root

let rec apply_one st ctx r args =
  let found =
    match candidates st ctx.mode r with
    | [] -> None
    | cs ->
        let env = { SH.doc = st.doc; vars = ctx.vars; current = r } in
        List.find_opt (fun c -> c.matches env r) cs
  in
  match found with
  | Some c -> instantiate st ctx st.templates.(c.template) r args
  | None -> builtin_rule st ctx r

and builtin_rule st ctx r =
  match SH.kind st.doc r with
  | SH.Doc | SH.Elem ->
      let kids = SH.children st.doc r in
      let size = List.length kids in
      List.iteri (fun i k -> apply_one st { ctx with row = r; position = i + 1; size } k []) kids
  | SH.Text | SH.Attr -> emit st (E.Text (SH.string_value st.doc r))
  | SH.Comment | SH.Pi -> ()

and instantiate st ctx tmpl r args =
  st.recursion <- st.recursion + 1;
  if st.recursion > max_recursion then err "template recursion limit exceeded";
  let ctx =
    List.fold_left
      (fun c (pname, default) ->
        bind c pname
          (match List.assoc_opt pname args with
          | Some v -> v
          | None -> ( match default with Some dv -> dv st c | None -> V_shred (SH.V_str ""))))
      { ctx with row = r } tmpl.params
  in
  tmpl.body st ctx;
  st.recursion <- st.recursion - 1

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* a compiled expression at the instruction's context row *)
let xpath e =
  let ce = SH.compile_expr e in
  fun st ctx ->
    ce { SH.doc = st.doc; vars = ctx.vars; current = ctx.row } ctx.row ctx.position ctx.size

let compile_select (e : XA.expr) : st -> ctx -> vval =
  match e with
  | XA.Var v -> (
      fun _ ctx ->
        match Smap.find_opt v ctx.vars with
        | Some x -> V_shred x
        | None -> (
            match Smap.find_opt v ctx.frags with
            | Some f -> V_frag f
            | None -> fallback "unbound variable $%s" v))
  | _ ->
      let x = xpath e in
      fun st ctx -> V_shred (x st ctx)

let vval_string st = function V_shred v -> SH.value_string st.doc v | V_frag f -> X.string_value f

(* a result fragment is a non-empty node-set *)
let vval_bool = function V_shred v -> SH.value_bool v | V_frag _ -> true

let rows_of_select what e =
  let sel = compile_select e in
  fun st ctx ->
    match sel st ctx with
    | V_shred (SH.V_rows rs) -> rs
    | _ -> err "%s select must be a node-set" what

let compile_avt (a : Ast.avt) =
  match a with
  | [ Ast.Avt_str s ] -> fun _ _ -> s
  | parts ->
      let parts =
        List.map
          (function
            | Ast.Avt_str s -> fun _ _ -> s
            | Ast.Avt_expr e ->
                let x = xpath e in
                fun st ctx -> SH.value_string st.doc (x st ctx))
          parts
      in
      fun st ctx -> String.concat "" (List.map (fun p -> p st ctx) parts)

let compile_sort (sorts : Ast.sort_spec list) =
  if sorts = [] then fun _ _ rows -> rows
  else
    let keys =
      List.map
        (fun (s : Ast.sort_spec) ->
          let x = xpath s.Ast.sort_key in
          fun st c ->
            let v = x st c in
            if s.Ast.numeric then `Num (SH.value_number st.doc v)
            else `Str (SH.value_string st.doc v))
        sorts
    in
    fun st ctx rows ->
      let size = List.length rows in
      Xdb_xslt.Vm.sort_keyed sorts
        (List.mapi
           (fun i r ->
             let c = { ctx with row = r; position = i + 1; size } in
             (List.map (fun k -> k st c) keys, r))
           rows)

let compile (prog : C.program) : program =
  let cand id =
    let ct = prog.C.templates.(id) in
    Option.map
      (fun (pat, prio) ->
        (prio, ct.C.source_index, { matches = SH.compile_pattern pat; template = id }))
      ct.C.pattern
  in
  let cands = Array.init (Array.length prog.C.templates) cand in
  (* best first: the template Vm.find_template's fold would keep *)
  let sorted ids =
    List.filter_map (fun id -> cands.(id)) ids
    |> List.stable_sort (fun (p1, s1, _) (p2, s2, _) -> compare (p2, s2) (p1, s1))
    |> List.map (fun (_, _, c) -> c)
  in
  let dispatch (t : C.mode_dispatch) =
    let untyped = !(t.C.untyped) in
    let named = !(t.C.any_element) @ untyped in
    let by_name = Hashtbl.create 16 in
    Hashtbl.iter (fun name ids -> Hashtbl.replace by_name name (sorted (!ids @ named))) t.C.by_elem_name;
    {
      by_name;
      other_names = sorted named;
      text = sorted (!(t.C.text_bucket) @ untyped);
      comment = sorted (!(t.C.comment_bucket) @ untyped);
      pi = sorted (!(t.C.pi_bucket) @ untyped);
      root = sorted (!(t.C.root_bucket) @ untyped);
    }
  in
  let modes = List.map (fun (m, t) -> (m, dispatch t)) !(prog.C.dispatch) in
  let no_templates =
    { by_name = Hashtbl.create 1; other_names = []; text = []; comment = []; pi = []; root = [] }
  in
  let mode_of m = Option.value ~default:no_templates (List.assoc_opt m modes) in
  let rec code (ops : C.code) : st -> ctx -> unit =
    let n = Array.length ops in
    (* xsl:variable extends the context of the instructions after it *)
    let rec seq i =
      if i >= n then fun _ _ -> ()
      else
        match ops.(i) with
        | C.O_var (name, v) ->
            let v = value v and rest = seq (i + 1) in
            fun st ctx -> rest st (bind ctx name (v st ctx))
        | o when i = n - 1 -> op o
        | o ->
            let f = op o and rest = seq (i + 1) in
            fun st ctx ->
              f st ctx;
              rest st ctx
    in
    seq 0
  and value = function
    | C.C_select e -> compile_select e
    | C.C_tree ops ->
        let body = code ops in
        fun st ctx -> V_frag (fragment st ctx body)
  and params ps =
    let ps = List.map (fun (n, v) -> (n, value v)) ps in
    fun st ctx -> List.map (fun (n, v) -> (n, v st ctx)) ps
  and element name body st ctx =
    emit st (E.Start_element name);
    body st ctx;
    emit st E.End_element
  and op : C.op -> st -> ctx -> unit = function
    | C.O_text "" -> fun _ _ -> ()
    | C.O_text s ->
        let ev = E.Text s in
        fun st _ -> emit st ev
    | C.O_value_of e ->
        let sel = compile_select e in
        fun st ctx -> emit st (E.Text (vval_string st (sel st ctx)))
    | C.O_copy_of e -> (
        let sel = compile_select e in
        fun st ctx ->
          match sel st ctx with
          | V_frag f -> List.iter (copy_node st) f.X.children
          | V_shred (SH.V_rows rs) -> List.iter (copy_row st) rs
          | V_shred v -> emit st (E.Text (SH.value_string st.doc v)))
    | C.O_copy body -> (
        let body = code body in
        fun st ctx ->
          let d = st.doc and r = ctx.row in
          match SH.kind d r with
          | SH.Elem -> element (SH.qname d r) body st ctx
          | SH.Doc -> body st ctx
          | SH.Text -> emit st (E.Text (SH.string_value d r))
          | SH.Comment -> emit st (E.Comment (SH.string_value d r))
          | SH.Pi -> emit st (E.Pi (SH.local d r, SH.string_value d r))
          | SH.Attr -> emit st (E.Attr (SH.qname d r, SH.string_value d r)))
    | C.O_literal_elem (name, attrs, body) ->
        let name = X.qname name and body = code body in
        let attrs = List.map (fun (an, avt) -> (X.qname an, compile_avt avt)) attrs in
        element name (fun st ctx ->
            List.iter (fun (q, v) -> emit st (E.Attr (q, v st ctx))) attrs;
            body st ctx)
    | C.O_elem (name, body) ->
        let name = compile_avt name and body = code body in
        fun st ctx -> element (X.qname (name st ctx)) body st ctx
    | C.O_attr (name, body) ->
        let name = compile_avt name and body = code body in
        fun st ctx ->
          let v = fragment_string st ctx body in
          emit st (E.Attr (X.qname (name st ctx), v))
    | C.O_comment body ->
        let body = code body in
        fun st ctx -> emit st (E.Comment (fragment_string st ctx body))
    | C.O_pi (target, body) ->
        let target = compile_avt target and body = code body in
        fun st ctx ->
          let d = fragment_string st ctx body in
          emit st (E.Pi (target st ctx, d))
    | C.O_if (test, body) ->
        let test = compile_select test and body = code body in
        fun st ctx -> if vval_bool (test st ctx) then body st ctx
    | C.O_choose branches ->
        let branches =
          List.map (fun (t, body) -> (Option.map compile_select t, code body)) branches
        in
        fun st ctx ->
          let rec go = function
            | [] -> ()
            | (None, body) :: _ -> body st ctx
            | (Some t, body) :: rest -> if vval_bool (t st ctx) then body st ctx else go rest
          in
          go branches
    | C.O_for_each (select, sorts, body) ->
        let rows = rows_of_select "for-each" select and sort = compile_sort sorts in
        let body = code body in
        fun st ctx ->
          let rows = sort st ctx (rows st ctx) in
          let size = List.length rows in
          List.iteri (fun i r -> body st { ctx with row = r; position = i + 1; size }) rows
    | C.O_var _ -> assert false (* bound by [seq] *)
    | C.O_number _ ->
        fun st ctx -> emit st (E.Text (string_of_int (SH.sibling_number st.doc ctx.row)))
    | C.O_message body ->
        let body = code body in
        fun st ctx -> ignore (fragment st ctx body)
    | C.O_call { target; params = ps; _ } ->
        let args = params ps in
        fun st ctx -> instantiate st ctx st.templates.(target) ctx.row (args st ctx)
    | C.O_apply { select; mode; sort; params = ps; _ } ->
        let rows =
          match select with
          | None -> fun st ctx -> SH.children st.doc ctx.row
          | Some e -> rows_of_select "apply-templates" e
        in
        let sort = compile_sort sort and args = params ps and mode = mode_of mode in
        fun st ctx ->
          let rows = sort st ctx (rows st ctx) in
          let args = args st ctx in
          let size = List.length rows in
          List.iteri (fun i r -> apply_one st { ctx with position = i + 1; size; mode } r args) rows
  in
  let template (ct : C.ctemplate) =
    { params = List.map (fun (n, d) -> (n, Option.map value d)) ct.C.tparams; body = code ct.C.tcode }
  in
  let unsupported =
    if prog.C.keys <> [] then Some "xsl:key requires the DOM path"
    else if prog.C.space.Ast.strip_all || prog.C.space.Ast.strip <> [] then
      Some "active whitespace stripping requires the DOM path"
    else None
  in
  {
    bytecode = prog;
    unsupported;
    templates = Array.map template prog.C.templates;
    default_mode = mode_of None;
    globals = List.map (fun (n, v) -> (n, value v)) prog.C.globals;
  }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run (p : program) (store : SH.t) docid : string =
  Option.iter (fun m -> raise (Fallback m)) p.unsupported;
  let st =
    {
      doc = SH.doc store docid;
      templates = p.templates;
      out = Tree (E.tree_builder ~merge_text:true ~drop_top_attrs:true ());
      recursion = 0;
    }
  in
  try
    let base =
      (* row 0 is the document row *)
      { row = 0; position = 1; size = 1; vars = Smap.empty; frags = Smap.empty; mode = p.default_mode }
    in
    (* global variables, each seeing the ones before it *)
    let ctx = List.fold_left (fun c (n, v) -> bind c n (v st c)) base p.globals in
    let buf = Buffer.create 1024 in
    let sink = E.serializing_sink buf in
    st.out <- Stream { sink; depth = 0; open_tag = None; attrs = [] };
    apply_one st ctx 0 [];
    sink.finish ();
    Buffer.contents buf
  with SH.Unsupported m -> fallback "%s" m
