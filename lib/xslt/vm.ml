(** The XSLTVM: bytecode interpreter with hash-table template dispatch and
    optional trace instrumentation (paper §4.3 and [13]).

    This is the paper's {e functional evaluation} baseline: it walks a DOM
    tree, dispatches templates through per-mode hash buckets, and builds the
    result tree imperatively.  With a {!trace_sink} attached it reports
    template instantiation events — the input of the partial evaluator. *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
module XP = Xdb_xpath.Ast
module XV = Xdb_xpath.Value
module XE = Xdb_xpath.Eval
module Pat = Xdb_xpath.Pattern
open Compile

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

module Smap = XE.Smap

type trace_event =
  | Ev_enter of { template : int option; node : X.node; site : int option }
      (** template instantiation ([None] = built-in rule) caused by the
          apply/call site [site] ([None] = initial application) *)
  | Ev_exit

type trace_sink = trace_event -> unit

type state = {
  prog : program;
  mutable builders : E.builder list;
      (** result-construction stack, innermost fragment first; every op
          emits output events into the head builder *)
  trace : trace_sink option;
  mutable messages : string list;
  mutable recursion : int;
}

let max_recursion = 2000

(* ------------------------------------------------------------------ *)
(* Output construction                                                 *)
(* ------------------------------------------------------------------ *)

(* XSLT result-tree semantics as builder options: adjacent text merges
   (empty text vanishes) and attributes at fragment top level are dropped
   per the XSLT error-recovery rule *)
let result_builder () = E.tree_builder ~merge_text:true ~drop_top_attrs:true ()

let cur_builder st = match st.builders with b :: _ -> b | [] -> err "no output context"

let b_emit st ev =
  try E.builder_emit (cur_builder st) ev with E.Serialize_error m -> err "%s" m

(* existing (copied) nodes are adopted, not replayed: text copied as a node
   stays a separate node, only text *events* merge — the out_frame rules *)
let b_add st n = try E.builder_add_node (cur_builder st) n with E.Serialize_error m -> err "%s" m

let emit_text st s = b_emit st (E.Text s)

let with_fragment st f =
  let b = result_builder () in
  st.builders <- b :: st.builders;
  f ();
  st.builders <- List.tl st.builders;
  let frag = X.make X.Document in
  X.set_children frag (E.builder_result b);
  frag

(* ------------------------------------------------------------------ *)
(* Contexts and values                                                 *)
(* ------------------------------------------------------------------ *)

type ctx = {
  node : X.node;
  position : int;
  size : int;
  vars : XV.t Smap.t;
  mode : string option;
  current_root : X.node;  (** document root for absolute paths *)
  assume_predicates : bool;  (** partial-evaluation mode (paper §4.1) *)
  extensions : (string * XE.extension) list;  (** key(), document(), … *)
}

let xpath_ctx ctx =
  { (XE.make_context ~vars:ctx.vars ~current:ctx.node ~extensions:ctx.extensions
       ~assume_predicates:ctx.assume_predicates ctx.node)
    with
    XE.position = ctx.position;
    size = ctx.size }

let eval_xpath ctx e = XE.eval (xpath_ctx ctx) e

let eval_avt ctx (a : Ast.avt) =
  String.concat ""
    (List.map
       (function
         | Ast.Avt_str s -> s
         | Ast.Avt_expr e -> XV.string_value (eval_xpath ctx e))
       a)

(* ------------------------------------------------------------------ *)
(* Template matching                                                   *)
(* ------------------------------------------------------------------ *)

let candidate_ids st mode (node : X.node) =
  match List.assoc_opt mode !(st.prog.dispatch) with
  | None -> []
  | Some table ->
      let name_hits =
        match node.X.kind with
        | X.Element q -> (
            match Hashtbl.find_opt table.by_elem_name q.local with
            | Some b -> !b
            | None -> [])
        | X.Attribute (q, _) -> (
            match Hashtbl.find_opt table.by_elem_name q.local with
            | Some b -> !b
            | None -> [])
        | _ -> []
      in
      let kind_hits =
        match node.X.kind with
        | X.Element _ | X.Attribute _ -> !(table.any_element)
        | X.Text _ -> !(table.text_bucket)
        | X.Comment _ -> !(table.comment_bucket)
        | X.Pi _ -> !(table.pi_bucket)
        | X.Document -> !(table.root_bucket)
      in
      name_hits @ kind_hits @ !(table.untyped)

(** [find_template st ctx node mode] — best matching template id, if any.
    Ties break by priority, then by document order (later wins). *)
let find_template st ctx node mode =
  let candidates = candidate_ids st mode node in
  let pctx = xpath_ctx { ctx with node } in
  let best =
    List.fold_left
      (fun best id ->
        let ct = st.prog.templates.(id) in
        match ct.pattern with
        | None -> best
        | Some (pat, prio) ->
            if Pat.matches pctx pat node then
              match best with
              | Some (_, bprio, bsrc) when bprio > prio || (bprio = prio && bsrc > ct.source_index)
                ->
                  best
              | _ -> Some (id, prio, ct.source_index)
            else best)
      None candidates
  in
  Option.map (fun (id, _, _) -> id) best

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* xsl:sort over keys computed once per item: stable, numbers before
   strings, each key's order flipped when descending *)
let sort_keyed (sorts : Ast.sort_spec list) keyed =
  let rec cmp ka kb (ss : Ast.sort_spec list) =
    match (ka, kb, ss) with
    | a :: ka, b :: kb, s :: ss -> (
        let c =
          match (a, b) with
          | `Num x, `Num y -> compare x y
          | `Str x, `Str y -> compare x y
          | `Num _, `Str _ -> -1
          | `Str _, `Num _ -> 1
        in
        match if s.descending then -c else c with 0 -> cmp ka kb ss | c -> c)
    | _ -> 0
  in
  List.map snd (List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb sorts) keyed)

let sort_nodes ctx (sorts : Ast.sort_spec list) nodes =
  if sorts = [] then nodes
  else
    let size = List.length nodes in
    sort_keyed sorts
      (List.mapi
         (fun i n ->
           let c = { ctx with node = n; position = i + 1; size } in
           ( List.map
               (fun (s : Ast.sort_spec) ->
                 let v = eval_xpath c s.sort_key in
                 if s.numeric then `Num (XV.number_value v) else `Str (XV.string_value v))
               sorts,
             n ))
         nodes)

(* sequential execution with in-scope variable accumulation *)
let rec exec_ops_with_vars st ctx code =
  (* O_var extends the environment for subsequent siblings *)
  let _ =
    Array.fold_left
      (fun ctx op -> match exec_op_binding st ctx op with Some ctx' -> ctx' | None -> ctx)
      ctx code
  in
  ()

and exec_op_binding st ctx op : ctx option =
  match op with
  | O_text s ->
      emit_text st s;
      None
  | O_value_of e ->
      emit_text st (XV.string_value (eval_xpath ctx e));
      None
  | O_copy_of e ->
      (match eval_xpath ctx e with
      | XV.Nodes ns ->
          List.iter
            (fun n ->
              match n.X.kind with
              | X.Document -> List.iter (fun c -> b_add st (X.deep_copy c)) n.X.children
              | _ -> b_add st (X.deep_copy n))
            ns
      | v -> emit_text st (XV.string_value v));
      None
  | O_copy body ->
      (match ctx.node.X.kind with
      | X.Element q ->
          b_emit st (E.Start_element q);
          exec_ops_with_vars st ctx body;
          b_emit st E.End_element
      | X.Document -> exec_ops_with_vars st ctx body
      | X.Text s -> emit_text st s
      | X.Comment c -> b_emit st (E.Comment c)
      | X.Pi (t, d) -> b_emit st (E.Pi (t, d))
      | X.Attribute (q, v) -> b_emit st (E.Attr (q, v)));
      None
  | O_literal_elem (name, attrs, body) ->
      b_emit st (E.Start_element (X.qname name));
      List.iter (fun (an, avt) -> b_emit st (E.Attr (X.qname an, eval_avt ctx avt))) attrs;
      exec_ops_with_vars st ctx body;
      b_emit st E.End_element;
      None
  | O_elem (name_avt, body) ->
      b_emit st (E.Start_element (X.qname (eval_avt ctx name_avt)));
      exec_ops_with_vars st ctx body;
      b_emit st E.End_element;
      None
  | O_attr (name_avt, body) ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      b_emit st (E.Attr (X.qname (eval_avt ctx name_avt), X.string_value frag));
      None
  | O_comment body ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      b_emit st (E.Comment (X.string_value frag));
      None
  | O_pi (target_avt, body) ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      b_emit st (E.Pi (eval_avt ctx target_avt, X.string_value frag));
      None
  | O_if (test, body) ->
      if XV.boolean_value (eval_xpath ctx test) then exec_ops_with_vars st ctx body;
      None
  | O_choose branches ->
      let rec go = function
        | [] -> ()
        | (None, body) :: _ -> exec_ops_with_vars st ctx body
        | (Some t, body) :: rest ->
            if XV.boolean_value (eval_xpath ctx t) then exec_ops_with_vars st ctx body
            else go rest
      in
      go branches;
      None
  | O_for_each (select, sorts, body) ->
      let nodes =
        match eval_xpath ctx select with
        | XV.Nodes ns -> ns
        | v -> err "for-each select must be a node-set, got %s" (XV.type_name v)
      in
      let nodes = sort_nodes ctx sorts nodes in
      let size = List.length nodes in
      List.iteri
        (fun i n -> exec_ops_with_vars st { ctx with node = n; position = i + 1; size } body)
        nodes;
      None
  | O_var (name, v) ->
      let value = eval_cvalue st ctx v in
      Some { ctx with vars = Smap.add name value ctx.vars }
  | O_number format ->
      (* level="single": 1 + preceding siblings with the same expanded name *)
      let n = ctx.node in
      let count =
        match n.X.parent with
        | None -> 1
        | Some p ->
            let rec upto acc = function
              | [] -> acc
              | x :: _ when x == n -> acc
              | x :: rest ->
                  let same =
                    match (x.X.kind, n.X.kind) with
                    | X.Element a, X.Element b -> X.qname_equal a b
                    | _ -> false
                  in
                  upto (if same then acc + 1 else acc) rest
            in
            1 + upto 0 p.X.children
      in
      ignore format;
      emit_text st (string_of_int count);
      None
  | O_message body ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      st.messages <- X.string_value frag :: st.messages;
      None
  | O_call { site; target; params } ->
      let ct = st.prog.templates.(target) in
      let args = List.map (fun (n, v) -> (n, eval_cvalue st ctx v)) params in
      instantiate st ctx ~site:(Some site) ct ctx.node args;
      None
  | O_apply { site; select; mode; sort; params } ->
      let nodes =
        match select with
        | None -> ctx.node.X.children
        | Some e -> (
            match eval_xpath ctx e with
            | XV.Nodes ns -> ns
            | v -> err "apply-templates select must be a node-set, got %s" (XV.type_name v))
      in
      let nodes = sort_nodes ctx sort nodes in
      let args = List.map (fun (n, v) -> (n, eval_cvalue st ctx v)) params in
      let size = List.length nodes in
      List.iteri
        (fun i n ->
          apply_one st { ctx with position = i + 1; size; mode } ~site:(Some site) n args)
        nodes;
      None

and eval_cvalue st ctx = function
  | C_select e -> eval_xpath ctx e
  | C_tree code ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx code) in
      XV.Nodes [ frag ]

(* dispatch one node: matching template or built-in rule *)
and apply_one st ctx ~site node args =
  match find_template st ctx node ctx.mode with
  | Some id -> instantiate st ctx ~site st.prog.templates.(id) node args
  | None -> builtin_rule st ctx ~site node

and builtin_rule st ctx ~site node =
  (match st.trace with Some sink -> sink (Ev_enter { template = None; node; site }) | None -> ());
  (match node.X.kind with
  | X.Document | X.Element _ ->
      (* built-in rule: apply templates to children *)
      let kids = node.X.children in
      let size = List.length kids in
      List.iteri
        (fun i k -> apply_one st { ctx with node; position = i + 1; size } ~site:None k [])
        kids
  | X.Text _ | X.Attribute _ -> emit_text st (X.string_value node)
  | X.Comment _ | X.Pi _ -> ());
  match st.trace with Some sink -> sink Ev_exit | None -> ()

and instantiate st ctx ~site (ct : ctemplate) node args =
  st.recursion <- st.recursion + 1;
  if st.recursion > max_recursion then err "template recursion limit exceeded";
  (match st.trace with
  | Some sink -> sink (Ev_enter { template = Some ct.t_id; node; site })
  | None -> ());
  (* bind parameters: passed value, else default, else empty string *)
  let vars =
    List.fold_left
      (fun vars (pname, default) ->
        let value =
          match List.assoc_opt pname args with
          | Some v -> v
          | None -> (
              match default with
              | Some dv ->
                  eval_cvalue st { ctx with node; vars } dv
              | None -> XV.Str "")
        in
        Smap.add pname value vars)
      ctx.vars ct.tparams
  in
  exec_ops_with_vars st { ctx with node; vars } ct.tcode;
  (match st.trace with Some sink -> sink Ev_exit | None -> ());
  st.recursion <- st.recursion - 1

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* lazily-built key tables (xsl:key): key name → use-value → nodes.
   [conservative] is the partial-evaluation mode (paper §4.1): the lookup
   value is unknown on the sample document, so key() returns every node
   matching the key's pattern. *)
let key_extension ?(conservative = false) (prog : program) (root : X.node) : XE.extension =
  let tables : (string, (string, X.node list) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
  let build (decl : Ast.key_decl) =
    let table = Hashtbl.create 64 in
    let pctx = XE.make_context root in
    List.iter
      (fun n ->
        if Pat.matches pctx decl.Ast.key_match n then
          let use_ctx = XE.make_context ~current:n n in
          let values =
            match XE.eval use_ctx decl.Ast.key_use with
            | XV.Nodes ns -> List.map X.string_value ns
            | v -> [ XV.string_value v ]
          in
          List.iter
            (fun v ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt table v) in
              Hashtbl.replace table v (prev @ [ n ]))
            values)
      (root :: X.descendants root);
    table
  in
  fun _ctx args ->
    match args with
    | [ name_v; value_v ] -> (
        let name = XV.string_value name_v in
        match List.find_opt (fun (d : Ast.key_decl) -> d.Ast.key_name = name) prog.keys with
        | None -> err "key(): no xsl:key named %S" name
        | Some decl when conservative ->
            ignore value_v;
            let pctx = XE.make_context root in
            XV.nodes
              (List.filter
                 (fun n -> Pat.matches pctx decl.Ast.key_match n)
                 (root :: X.descendants root))
        | Some decl ->
            let table =
              match Hashtbl.find_opt tables name with
              | Some t -> t
              | None ->
                  let t = build decl in
                  Hashtbl.add tables name t;
                  t
            in
            let lookups =
              match value_v with
              | XV.Nodes ns -> List.map X.string_value ns
              | v -> [ XV.string_value v ]
            in
            XV.nodes
              (List.concat_map
                 (fun v -> Option.value ~default:[] (Hashtbl.find_opt table v))
                 lookups))
    | _ -> err "key() expects 2 arguments"

(** [transform ?trace prog doc] — result fragment (a document node). *)
let transform ?trace (prog : program) (doc : X.node) : X.node =
  let st = { prog; builders = []; trace; messages = []; recursion = 0 } in
  let doc = Strip.apply prog.space doc in
  let root = X.root_of doc in
  let base_ctx =
    {
      node = root;
      position = 1;
      size = 1;
      vars = Smap.empty;
      mode = None;
      current_root = root;
      assume_predicates = trace <> None;
      extensions =
        (if prog.keys = [] then []
         else [ ("key", key_extension ~conservative:(trace <> None) prog root) ]);
    }
  in
  (* global variables *)
  let st0 = { st with builders = [ result_builder () ] } in
  let vars =
    List.fold_left
      (fun vars (n, v) -> Smap.add n (eval_cvalue st0 { base_ctx with vars } v) vars)
      Smap.empty prog.globals
  in
  let ctx = { base_ctx with vars } in
  let b = result_builder () in
  st.builders <- [ b ];
  apply_one st ctx ~site:None root [];
  st.builders <- [];
  let frag = X.make X.Document in
  X.set_children frag (E.builder_result b);
  X.reindex frag;
  frag

(** [transform_to_string prog doc] — serialized with the stylesheet's
    output method. *)
let transform_to_string ?trace prog doc =
  let frag = transform ?trace prog doc in
  let meth =
    match prog.out_method with
    | Ast.Out_xml -> Xdb_xml.Serializer.Xml
    | Ast.Out_html -> Xdb_xml.Serializer.Html
    | Ast.Out_text -> Xdb_xml.Serializer.Text_output
  in
  Xdb_xml.Serializer.node_list_to_string ~meth ~indent:prog.out_indent frag.X.children

(** Convenience: parse, compile and run a stylesheet. *)
let run_stylesheet ?trace stylesheet_text doc =
  let ss = Parser.parse stylesheet_text in
  let prog = compile ss in
  ignore trace;
  transform ?trace prog doc
