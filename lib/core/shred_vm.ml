(** The shredded XSLTVM: the {!Xdb_xslt.Vm} bytecode interpreter re-based
    on relational node rows.  Template match patterns run through
    {!Xdb_rel.Shred.pattern_matches} and select/test expressions through
    {!Xdb_rel.Shred.eval_expr}, so matching and select iteration execute
    as set-at-a-time steps over the node rows — the input document is
    never rebuilt.  The only DOM the interpreter touches is (a) the result
    fragment it constructs and (b) {!Xdb_rel.Shred.subtree} copies of the
    subtrees a template actually serialises ([xsl:copy-of] / built-in
    rules never need one: they read the [value] column).

    Mirrors {!Xdb_xslt.Vm} op for op — output is byte-identical to the
    functional path.  Constructs the relational engine cannot express
    ({!Xdb_rel.Shred.Unsupported}), plus [xsl:key] and active whitespace
    stripping, raise {!Fallback}; the caller then reconstructs the
    document and runs the DOM VM, so answers never degrade — only
    speed. *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
module XA = Xdb_xpath.Ast
module SH = Xdb_rel.Shred
module C = Xdb_xslt.Compile
module Ast = Xdb_xslt.Ast

exception Fallback of string

let fallback fmt = Printf.ksprintf (fun m -> raise (Fallback m)) fmt

let err fmt = Printf.ksprintf (fun m -> raise (Xdb_xslt.Vm.Runtime_error m)) fmt

module Smap = SH.Smap

(* a variable's value: a shredded XPath value, or a constructed result
   fragment (xsl:variable with content).  Fragments have no rows, so an
   expression referencing one leaves the relational subset — the binding
   is withheld from {!SH.eval_expr}'s environment and the resulting
   unbound-variable {!SH.Unsupported} triggers the per-document DOM
   fallback; only whole-variable references ([select="$v"]) stay
   relational. *)
type vval = V_shred of SH.value | V_frag of X.node

type ctx = {
  row : SH.node;
  position : int;
  size : int;
  vars : vval Smap.t;
  mode : string option;
}

type state = {
  prog : C.program;
  shred : SH.t;
  mutable builders : E.builder list;
  mutable messages : string list;
  mutable recursion : int;
}

let max_recursion = 2000

(* ------------------------------------------------------------------ *)
(* Output construction (identical to Vm's)                             *)
(* ------------------------------------------------------------------ *)

let result_builder () = E.tree_builder ~merge_text:true ~drop_top_attrs:true ()

let cur_builder st = match st.builders with b :: _ -> b | [] -> err "no output context"

let b_emit st ev =
  try E.builder_emit (cur_builder st) ev with E.Serialize_error m -> err "%s" m

let b_add st n =
  try E.builder_add_node (cur_builder st) n with E.Serialize_error m -> err "%s" m

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
(* Expression evaluation over rows                                     *)
(* ------------------------------------------------------------------ *)

(* the relational environment: every shredded binding, fragments withheld
   (see {!vval}) *)
let shred_vars vars =
  Smap.fold
    (fun k v acc -> match v with V_shred sv -> Smap.add k sv acc | V_frag _ -> acc)
    vars Smap.empty

let eval_xpath st ctx e =
  SH.eval_expr st.shred ~vars:(shred_vars ctx.vars) ~position:ctx.position
    ~size:ctx.size ctx.row e

(* whole-variable references pass fragments through without touching the
   relational evaluator *)
let eval_select st ctx (e : XA.expr) : vval =
  match e with
  | XA.Var v -> (
      match Smap.find_opt v ctx.vars with
      | Some x -> x
      | None -> fallback "unbound variable $%s" v)
  | _ -> V_shred (eval_xpath st ctx e)

let vval_string = function
  | V_shred v -> SH.value_string v
  | V_frag f -> X.string_value f

let vval_bool = function
  | V_shred v -> SH.value_bool v
  | V_frag _ -> true (* a result fragment is a non-empty node-set *)

let eval_avt st ctx (a : Ast.avt) =
  String.concat ""
    (List.map
       (function
         | Ast.Avt_str s -> s
         | Ast.Avt_expr e -> SH.value_string (eval_xpath st ctx e))
       a)

let row_qname (r : SH.node) = X.qname ~prefix:r.SH.prefix ~uri:r.SH.uri r.SH.name

(* ------------------------------------------------------------------ *)
(* Template matching                                                   *)
(* ------------------------------------------------------------------ *)

(* hash-bucket candidates, mirroring Vm.candidate_ids over row kinds *)
let candidate_ids st mode (r : SH.node) =
  match List.assoc_opt mode !(st.prog.C.dispatch) with
  | None -> []
  | Some table ->
      let name_hits =
        match r.SH.kind with
        | "elem" | "attr" -> (
            match Hashtbl.find_opt table.C.by_elem_name r.SH.name with
            | Some b -> !b
            | None -> [])
        | _ -> []
      in
      let kind_hits =
        match r.SH.kind with
        | "elem" | "attr" -> !(table.C.any_element)
        | "text" -> !(table.C.text_bucket)
        | "comment" -> !(table.C.comment_bucket)
        | "pi" -> !(table.C.pi_bucket)
        | _ -> !(table.C.root_bucket)
      in
      name_hits @ kind_hits @ !(table.C.untyped)

(* best matching template id: ties break by priority, then document order
   (later wins) — exactly Vm.find_template with relational matching *)
let find_template st ctx (r : SH.node) mode =
  let vars = shred_vars ctx.vars in
  let best =
    List.fold_left
      (fun best id ->
        let ct = st.prog.C.templates.(id) in
        match ct.C.pattern with
        | None -> best
        | Some (pat, prio) ->
            if SH.pattern_matches st.shred ~vars pat r then
              match best with
              | Some (_, bprio, bsrc)
                when bprio > prio || (bprio = prio && bsrc > ct.C.source_index) ->
                  best
              | _ -> Some (id, prio, ct.C.source_index)
            else best)
      None (candidate_ids st mode r)
  in
  Option.map (fun (id, _, _) -> id) best

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let sort_rows st ctx (sorts : Ast.sort_spec list) rows =
  if sorts = [] then rows
  else
    let size = List.length rows in
    let keyed =
      List.mapi
        (fun i r ->
          let c = { ctx with row = r; position = i + 1; size } in
          let keys =
            List.map
              (fun (s : Ast.sort_spec) ->
                let v = eval_xpath st c s.Ast.sort_key in
                if s.Ast.numeric then `Num (SH.value_number v)
                else `Str (SH.value_string v))
              sorts
          in
          (keys, r))
        rows
    in
    let cmp (ka, _) (kb, _) =
      let rec go ks (ss : Ast.sort_spec list) =
        match (ks, ss) with
        | [], _ | _, [] -> 0
        | (a, b) :: krest, s :: srest -> (
            let c =
              match (a, b) with
              | `Num x, `Num y -> compare x y
              | `Str x, `Str y -> compare x y
              | `Num _, `Str _ -> -1
              | `Str _, `Num _ -> 1
            in
            let c = if s.Ast.descending then -c else c in
            match c with 0 -> go krest srest | c -> c)
      in
      go (List.combine ka kb) sorts
    in
    List.map snd (List.stable_sort cmp keyed)

let rec exec_ops_with_vars st ctx code =
  let _ =
    Array.fold_left
      (fun ctx op -> match exec_op_binding st ctx op with Some ctx' -> ctx' | None -> ctx)
      ctx code
  in
  ()

and exec_op_binding st ctx (op : C.op) : ctx option =
  match op with
  | C.O_text s ->
      emit_text st s;
      None
  | C.O_value_of e ->
      emit_text st (vval_string (eval_select st ctx e));
      None
  | C.O_copy_of e ->
      (match eval_select st ctx e with
      | V_frag f -> List.iter (fun c -> b_add st (X.deep_copy c)) f.X.children
      | V_shred (SH.V_rows rs) ->
          List.iter
            (fun (r : SH.node) ->
              if r.SH.kind = "doc" then
                List.iter (fun c -> b_add st (SH.subtree st.shred c)) (SH.children st.shred r)
              else b_add st (SH.subtree st.shred r))
            rs
      | V_shred v -> emit_text st (SH.value_string v));
      None
  | C.O_copy body ->
      (match ctx.row.SH.kind with
      | "elem" ->
          b_emit st (E.Start_element (row_qname ctx.row));
          exec_ops_with_vars st ctx body;
          b_emit st E.End_element
      | "doc" -> exec_ops_with_vars st ctx body
      | "text" -> emit_text st ctx.row.SH.value
      | "comment" -> b_emit st (E.Comment ctx.row.SH.value)
      | "pi" -> b_emit st (E.Pi (ctx.row.SH.name, ctx.row.SH.value))
      | "attr" -> b_emit st (E.Attr (row_qname ctx.row, ctx.row.SH.value))
      | k -> err "unknown node kind %S" k);
      None
  | C.O_literal_elem (name, attrs, body) ->
      b_emit st (E.Start_element (X.qname name));
      List.iter
        (fun (an, avt) -> b_emit st (E.Attr (X.qname an, eval_avt st ctx avt)))
        attrs;
      exec_ops_with_vars st ctx body;
      b_emit st E.End_element;
      None
  | C.O_elem (name_avt, body) ->
      b_emit st (E.Start_element (X.qname (eval_avt st ctx name_avt)));
      exec_ops_with_vars st ctx body;
      b_emit st E.End_element;
      None
  | C.O_attr (name_avt, body) ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      b_emit st (E.Attr (X.qname (eval_avt st ctx name_avt), X.string_value frag));
      None
  | C.O_comment body ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      b_emit st (E.Comment (X.string_value frag));
      None
  | C.O_pi (target_avt, body) ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      b_emit st (E.Pi (eval_avt st ctx target_avt, X.string_value frag));
      None
  | C.O_if (test, body) ->
      if vval_bool (eval_select st ctx test) then exec_ops_with_vars st ctx body;
      None
  | C.O_choose branches ->
      let rec go = function
        | [] -> ()
        | (None, body) :: _ -> exec_ops_with_vars st ctx body
        | (Some t, body) :: rest ->
            if vval_bool (eval_select st ctx t) then exec_ops_with_vars st ctx body
            else go rest
      in
      go branches;
      None
  | C.O_for_each (select, sorts, body) ->
      let rows =
        match eval_select st ctx select with
        | V_shred (SH.V_rows rs) -> rs
        | _ -> err "for-each select must be a node-set"
      in
      let rows = sort_rows st ctx sorts rows in
      let size = List.length rows in
      List.iteri
        (fun i r ->
          exec_ops_with_vars st { ctx with row = r; position = i + 1; size } body)
        rows;
      None
  | C.O_var (name, v) ->
      let value = eval_cvalue st ctx v in
      Some { ctx with vars = Smap.add name value ctx.vars }
  | C.O_number _format ->
      (* level="single": 1 + preceding siblings with the same expanded name *)
      let r = ctx.row in
      let count =
        match SH.parent_row st.shred r with
        | None -> 1
        | Some p ->
            let rec upto acc = function
              | [] -> acc
              | (x : SH.node) :: _ when x.SH.pre = r.SH.pre -> acc
              | (x : SH.node) :: rest ->
                  let same =
                    x.SH.kind = "elem" && r.SH.kind = "elem"
                    && String.equal x.SH.name r.SH.name
                    && String.equal x.SH.uri r.SH.uri
                  in
                  upto (if same then acc + 1 else acc) rest
            in
            1 + upto 0 (SH.children st.shred p)
      in
      emit_text st (string_of_int count);
      None
  | C.O_message body ->
      let frag = with_fragment st (fun () -> exec_ops_with_vars st ctx body) in
      st.messages <- X.string_value frag :: st.messages;
      None
  | C.O_call { target; params; _ } ->
      let ct = st.prog.C.templates.(target) in
      let args = List.map (fun (n, v) -> (n, eval_cvalue st ctx v)) params in
      instantiate st ctx ct ctx.row args;
      None
  | C.O_apply { select; mode; sort; params; _ } ->
      let rows =
        match select with
        | None -> SH.children st.shred ctx.row
        | Some e -> (
            match eval_select st ctx e with
            | V_shred (SH.V_rows rs) -> rs
            | _ -> err "apply-templates select must be a node-set")
      in
      let rows = sort_rows st ctx sort rows in
      let args = List.map (fun (n, v) -> (n, eval_cvalue st ctx v)) params in
      let size = List.length rows in
      List.iteri
        (fun i r -> apply_one st { ctx with position = i + 1; size; mode } r args)
        rows;
      None

and eval_cvalue st ctx = function
  | C.C_select e -> eval_select st ctx e
  | C.C_tree code ->
      V_frag (with_fragment st (fun () -> exec_ops_with_vars st ctx code))

and apply_one st ctx r args =
  match find_template st ctx r ctx.mode with
  | Some id -> instantiate st ctx st.prog.C.templates.(id) r args
  | None -> builtin_rule st ctx r

and builtin_rule st ctx (r : SH.node) =
  match r.SH.kind with
  | "doc" | "elem" ->
      let kids = SH.children st.shred r in
      let size = List.length kids in
      List.iteri
        (fun i k -> apply_one st { ctx with row = r; position = i + 1; size } k [])
        kids
  | "text" | "attr" -> emit_text st r.SH.value
  | _ -> ()

and instantiate st ctx (ct : C.ctemplate) (r : SH.node) args =
  st.recursion <- st.recursion + 1;
  if st.recursion > max_recursion then err "template recursion limit exceeded";
  let vars =
    List.fold_left
      (fun vars (pname, default) ->
        let value =
          match List.assoc_opt pname args with
          | Some v -> v
          | None -> (
              match default with
              | Some dv -> eval_cvalue st { ctx with row = r; vars } dv
              | None -> V_shred (SH.V_str ""))
        in
        Smap.add pname value vars)
      ctx.vars ct.C.tparams
  in
  exec_ops_with_vars st { ctx with row = r; vars } ct.C.tcode;
  st.recursion <- st.recursion - 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let transform (prog : C.program) (shred : SH.t) docid : X.node =
  if prog.C.keys <> [] then fallback "xsl:key requires the DOM path";
  if prog.C.space.Ast.strip_all || prog.C.space.Ast.strip <> [] then
    fallback "active whitespace stripping requires the DOM path";
  let root = SH.doc_node shred docid in
  let st = { prog; shred; builders = []; messages = []; recursion = 0 } in
  try
    let base_ctx = { row = root; position = 1; size = 1; vars = Smap.empty; mode = None } in
    (* global variables *)
    let st0 = { st with builders = [ result_builder () ] } in
    let vars =
      List.fold_left
        (fun vars (n, v) -> Smap.add n (eval_cvalue st0 { base_ctx with vars } v) vars)
        Smap.empty prog.C.globals
    in
    let ctx = { base_ctx with vars } in
    let b = result_builder () in
    st.builders <- [ b ];
    apply_one st ctx root [];
    st.builders <- [];
    let frag = X.make X.Document in
    X.set_children frag (E.builder_result b);
    X.reindex frag;
    frag
  with SH.Unsupported m -> fallback "%s" m

let transform_to_string prog shred docid =
  let frag = transform prog shred docid in
  Xdb_xml.Serializer.node_list_to_string frag.X.children
