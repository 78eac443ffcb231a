(** Dynamic evaluation of the XQuery subset over XML trees.

    Node construction follows XQuery content semantics: constructed content
    copies input nodes; adjacent atomic values are joined with single spaces
    and become text nodes.  Path steps are delegated to the XPath engine
    with the XQuery variable environment injected, so predicates see the
    same variables. *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
module XP = Xdb_xpath.Ast
module XE = Xdb_xpath.Eval
open Ast

exception Eval_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

module Smap = Map.Make (String)

type env = {
  vars : Value.t Smap.t;
  funs : fundef Smap.t;
  context : X.node option;  (** the context item (".") if any *)
  depth : int;  (** recursion guard *)
}

let max_depth = 4000

let empty_env = { vars = Smap.empty; funs = Smap.empty; context = None; depth = 0 }

let env_with_context node = { empty_env with context = Some node }

let bind env v value = { env with vars = Smap.add v value env.vars }

let context_node env =
  match env.context with Some n -> n | None -> err "no context item in scope"

(* XPath context carrying the XQuery variables *)
let xpath_ctx env node =
  let vars =
    Smap.fold (fun k v acc -> XE.Smap.add k (Value.to_xpath_value v) acc) env.vars XE.Smap.empty
  in
  { (XE.make_context node) with XE.vars }

(* ------------------------------------------------------------------ *)
(* Construction helpers                                                *)
(* ------------------------------------------------------------------ *)

(* sequence → content events into a tree builder (XQuery content semantics):
   nodes are deep-copied and adopted; adjacent atoms join with " " into one
   text event.  Node copies go through [builder_add_node] rather than an
   event replay so document-node items keep their exact shape. *)
let build_content (b : E.builder) (v : Value.t) : unit =
  let flush pending =
    if pending <> [] then E.builder_emit b (E.Text (String.concat " " (List.rev pending)))
  in
  let rec go pending = function
    | [] -> flush pending
    | Value.Atom a :: rest -> go (Value.atom_string a :: pending) rest
    | Value.Node n :: rest ->
        flush pending;
        E.builder_add_node b (X.deep_copy n);
        go [] rest
  in
  go [] v

(* sequence → content node list: copy nodes; adjacent atoms join with " " *)
let content_nodes (v : Value.t) : X.node list =
  let b = E.tree_builder () in
  build_content b v;
  E.builder_result b

(* run builder events for one constructed element, translating the event
   core's attribute-placement error into XQuery's wording *)
let build_element (f : E.builder -> unit) : X.node =
  let b = E.tree_builder () in
  (try f b
   with E.Serialize_error _ -> err "attribute node constructed after non-attribute content");
  match E.builder_result b with
  | [ n ] -> n
  | _ -> err "element constructor produced no single node"

(* single-event constructors (attribute / text / comment) share the same
   construction path *)
let constructed_node ev =
  let b = E.tree_builder () in
  E.builder_emit b ev;
  match E.builder_result b with [ n ] -> n | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval (env : env) (e : expr) : Value.t =
  if env.depth > max_depth then err "recursion depth exceeded (%d)" max_depth;
  match e with
  | Seq es -> List.concat_map (eval env) es
  | Literal a -> [ Value.Atom a ]
  | Var v -> (
      match Smap.find_opt v env.vars with
      | Some value -> value
      | None -> err "unbound variable $%s" v)
  | Context_item -> [ Value.Node (context_node env) ]
  | Root -> [ Value.Node (X.root_of (context_node env)) ]
  | If (c, t, f) -> if Value.boolean_value (eval env c) then eval env t else eval env f
  | Neg e -> Value.singleton_num (-.Value.number_value (eval env e))
  | Binop (op, a, b) -> eval_binop env op a b
  | Instance_of (e, it) -> (
      match eval env e with
      | [ item ] -> Value.singleton_bool (Value.item_matches it item)
      | [] -> Value.singleton_bool false
      | _ -> Value.singleton_bool false)
  | Path (base, steps) ->
      let base_v = eval env base in
      let nodes = Value.nodes_of base_v in
      let result =
        List.concat_map
          (fun n ->
            let ctx = xpath_ctx env n in
            XE.eval_steps ctx [ n ] steps)
          nodes
      in
      Value.of_nodes (Xdb_xpath.Value.sort_nodes result)
  | Fn_call (name, args) -> eval_fn env name args
  | User_call (name, args) -> (
      match Smap.find_opt name env.funs with
      | None -> err "call to undefined function %s()" name
      | Some f ->
          if List.length f.params <> List.length args then
            err "function %s expects %d arguments, got %d" name (List.length f.params)
              (List.length args);
          let env' =
            List.fold_left2
              (fun acc p a -> bind acc p (eval env a))
              { env with depth = env.depth + 1 }
              f.params args
          in
          eval env' f.body)
  | Flwor (clauses, return_) -> eval_flwor env clauses return_
  | Direct_elem (name, attrs, content) ->
      let el =
        build_element (fun b ->
            E.builder_emit b (E.Start_element (X.qname name));
            List.iter
              (fun (an, pieces) ->
                let v =
                  String.concat ""
                    (List.map
                       (function
                         | Attr_str s -> s
                         | Attr_expr e ->
                             String.concat " " (List.map Value.item_string (eval env e)))
                       pieces)
                in
                E.builder_emit b (E.Attr (X.qname an, v)))
              attrs;
            List.iter (fun ce -> build_content b (eval env ce)) content;
            E.builder_emit b E.End_element)
      in
      [ Value.Node el ]
  | Comp_elem (name_e, content_e) ->
      let name = Value.string_value (eval env name_e) in
      let el =
        build_element (fun b ->
            E.builder_emit b (E.Start_element (X.qname name));
            build_content b (eval env content_e);
            E.builder_emit b E.End_element)
      in
      [ Value.Node el ]
  | Comp_attr (name, e) ->
      let v = String.concat " " (List.map Value.item_string (eval env e)) in
      [ Value.Node (constructed_node (E.Attr (X.qname name, v))) ]
  | Comp_text e ->
      [
        Value.Node
          (constructed_node (E.Text (String.concat " " (List.map Value.item_string (eval env e)))));
      ]
  | Comp_comment e ->
      [ Value.Node (constructed_node (E.Comment (Value.string_value (eval env e)))) ]
  | Quantified { every; var; source; satisfies } ->
      let items = eval env source in
      let holds item = Value.boolean_value (eval (bind env var [ item ]) satisfies) in
      Value.singleton_bool (if every then List.for_all holds items else List.exists holds items)

and eval_binop env op a b =
  match op with
  | XP.Or -> Value.singleton_bool (Value.boolean_value (eval env a) || Value.boolean_value (eval env b))
  | XP.And ->
      Value.singleton_bool (Value.boolean_value (eval env a) && Value.boolean_value (eval env b))
  | XP.Union ->
      let na = Value.nodes_of (eval env a) and nb = Value.nodes_of (eval env b) in
      Value.of_nodes (Xdb_xpath.Value.sort_nodes (na @ nb))
  | XP.Plus | XP.Minus | XP.Mul | XP.Div | XP.Mod ->
      let x = Value.number_value (eval env a) and y = Value.number_value (eval env b) in
      Value.singleton_num
        (match op with
        | XP.Plus -> x +. y
        | XP.Minus -> x -. y
        | XP.Mul -> x *. y
        | XP.Div -> x /. y
        | XP.Mod -> Float.rem x y
        | _ -> assert false)
  | XP.Eq | XP.Neq | XP.Lt | XP.Leq | XP.Gt | XP.Geq ->
      let cmp_op =
        match op with
        | XP.Eq -> `Eq
        | XP.Neq -> `Neq
        | XP.Lt -> `Lt
        | XP.Leq -> `Leq
        | XP.Gt -> `Gt
        | XP.Geq -> `Geq
        | _ -> assert false
      in
      let va = Value.to_xpath_value (eval env a) and vb = Value.to_xpath_value (eval env b) in
      Value.singleton_bool (Xdb_xpath.Value.compare_values cmp_op va vb)

and eval_flwor env clauses return_ =
  (* tuple stream evaluation: each clause transforms a list of environments *)
  let streams =
    List.fold_left
      (fun envs clause ->
        match clause with
        | Let { var; value } -> List.map (fun e -> bind e var (eval e value)) envs
        | For { var; pos_var; source } ->
            List.concat_map
              (fun e ->
                let items = eval e source in
                List.mapi
                  (fun i item ->
                    let e = bind e var [ item ] in
                    match pos_var with
                    | None -> e
                    | Some pv -> bind e pv (Value.singleton_num (float_of_int (i + 1))))
                  items)
              envs
        | Where cond -> List.filter (fun e -> Value.boolean_value (eval e cond)) envs
        | Order_by keys ->
            (* a key compares by its typed value: a number numerically,
               anything else as text, numbers first — xsl:sort's order *)
            let typed = function [ Value.Atom (Num f) ] -> `Num f | v -> `Str (Value.string_value v) in
            let decorated =
              List.map (fun e -> (List.map (fun (k, desc) -> (typed (eval e k), desc)) keys, e)) envs
            in
            let cmp (ka, _) (kb, _) =
              let rec go = function
                | [] -> 0
                | ((xa, desc), (xb, _)) :: rest -> (
                    let c =
                      match (xa, xb) with
                      | `Num a, `Num b -> compare a b
                      | `Str a, `Str b -> compare a b
                      | `Num _, `Str _ -> -1
                      | `Str _, `Num _ -> 1
                    in
                    let c = if desc then -c else c in
                    match c with 0 -> go rest | c -> c)
              in
              go (List.combine ka kb)
            in
            List.map snd (List.stable_sort cmp decorated))
      [ env ] clauses
  in
  List.concat_map (fun e -> eval e return_) streams

and eval_fn env name args =
  let v i = eval env (List.nth args i) in
  let nargs = List.length args in
  let arity n = if nargs <> n then err "fn:%s expects %d argument(s), got %d" name n nargs in
  match name with
  | "string" ->
      arity 1;
      Value.singleton_string (Value.string_value (v 0))
  | "concat" ->
      if nargs < 2 then err "fn:concat expects at least 2 arguments";
      Value.singleton_string
        (String.concat "" (List.map (fun a -> Value.string_value (eval env a)) args))
  | "string-join" ->
      arity 2;
      let sep = Value.string_value (v 1) in
      Value.singleton_string (String.concat sep (List.map Value.item_string (v 0)))
  | "count" ->
      arity 1;
      Value.singleton_num (float_of_int (List.length (v 0)))
  | "sum" ->
      arity 1;
      Value.singleton_num
        (List.fold_left (fun acc i -> acc +. Xdb_xpath.Value.number_of_string (Value.item_string i)) 0.0 (v 0))
  | "avg" ->
      arity 1;
      let items = v 0 in
      if items = [] then Value.empty
      else
        Value.singleton_num
          (List.fold_left
             (fun acc i -> acc +. Xdb_xpath.Value.number_of_string (Value.item_string i))
             0.0 items
          /. float_of_int (List.length items))
  | "min" | "max" ->
      arity 1;
      let items = v 0 in
      if items = [] then Value.empty
      else
        let nums = List.map (fun i -> Xdb_xpath.Value.number_of_string (Value.item_string i)) items in
        Value.singleton_num
          (List.fold_left (if name = "min" then Float.min else Float.max) (List.hd nums) (List.tl nums))
  | "empty" ->
      arity 1;
      Value.singleton_bool (v 0 = [])
  | "exists" ->
      arity 1;
      Value.singleton_bool (v 0 <> [])
  | "not" ->
      arity 1;
      Value.singleton_bool (not (Value.boolean_value (v 0)))
  | "true" -> Value.singleton_bool true
  | "false" -> Value.singleton_bool false
  | "boolean" ->
      arity 1;
      Value.singleton_bool (Value.boolean_value (v 0))
  | "number" ->
      arity 1;
      Value.singleton_num (Value.number_value (v 0))
  | "data" ->
      arity 1;
      List.map (fun i -> Value.Atom (Str (Value.item_string i))) (v 0)
  | "name" | "local-name" -> (
      arity 1;
      match v 0 with
      | [ Value.Node n ] -> Value.singleton_string (X.local_name n)
      | [] -> Value.singleton_string ""
      | _ -> err "fn:%s expects a single node" name)
  | "position" | "last" -> err "fn:%s is only available inside path predicates" name
  | "substring" ->
      if nargs <> 2 && nargs <> 3 then err "fn:substring expects 2 or 3 arguments";
      let s = Value.string_value (v 0) in
      let start = Value.number_value (v 1) in
      let len = if nargs = 3 then Some (Value.number_value (v 2)) else None in
      Value.singleton_string (XE.substring_xpath s start len)
  | "string-length" ->
      arity 1;
      Value.singleton_num (float_of_int (String.length (Value.string_value (v 0))))
  | "normalize-space" ->
      arity 1;
      Value.singleton_string (XE.normalize_space (Value.string_value (v 0)))
  | "translate" ->
      arity 3;
      Value.singleton_string
        (XE.translate_xpath (Value.string_value (v 0)) (Value.string_value (v 1))
           (Value.string_value (v 2)))
  | "contains" ->
      arity 2;
      let s = Value.string_value (v 0) and sub = Value.string_value (v 1) in
      let found =
        if sub = "" then true
        else
          let ls = String.length s and lb = String.length sub in
          let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
          go 0
      in
      Value.singleton_bool found
  | "substring-before" | "substring-after" ->
      arity 2;
      let s = Value.string_value (v 0) and sub = Value.string_value (v 1) in
      let ls = String.length s and lb = String.length sub in
      let rec find i =
        if i + lb > ls then None else if String.sub s i lb = sub then Some i else find (i + 1)
      in
      let pos = if lb = 0 then Some 0 else find 0 in
      Value.singleton_string
        (match (pos, name) with
        | Some i, "substring-before" -> String.sub s 0 i
        | Some i, _ -> String.sub s (i + lb) (ls - i - lb)
        | None, _ -> "")
  | "starts-with" ->
      arity 2;
      let s = Value.string_value (v 0) and p = Value.string_value (v 1) in
      Value.singleton_bool
        (String.length s >= String.length p && String.sub s 0 (String.length p) = p)
  | "format-number" ->
      arity 2;
      Value.singleton_string
        (XE.format_number (Value.number_value (v 0)) (Value.string_value (v 1)))
  | "floor" ->
      arity 1;
      Value.singleton_num (Float.floor (Value.number_value (v 0)))
  | "ceiling" ->
      arity 1;
      Value.singleton_num (Float.ceil (Value.number_value (v 0)))
  | "round" ->
      arity 1;
      Value.singleton_num (Xdb_xpath.Value.round_number (Value.number_value (v 0)))
  | _ -> err "unknown function fn:%s" name

(* ------------------------------------------------------------------ *)
(* Program evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(** [run prog ~context] evaluates a program against a context node. *)
let run (p : prog) ~context : Value.t =
  let env = env_with_context context in
  let env =
    List.fold_left (fun acc (f : fundef) -> { acc with funs = Smap.add f.fname f acc.funs })
      env p.funs
  in
  let env = List.fold_left (fun acc (v, e) -> bind acc v (eval acc e)) env p.var_decls in
  eval env p.body

(** [run_to_nodes prog ~context] — result as a constructed node forest
    (atoms become text nodes), the shape XMLQuery RETURNING CONTENT gives. *)
let run_to_nodes p ~context = content_nodes (run p ~context)

(** [emit_result sink v] — a top-level result sequence as output events:
    atoms join with spaces into text events, nodes replay in place (no
    copy — the streamed image of {!content_nodes}). *)
let emit_result (sink : E.sink) (v : Value.t) : unit =
  let flush pending =
    if pending <> [] then sink.E.emit (E.Text (String.concat " " (List.rev pending)))
  in
  let rec go pending = function
    | [] -> flush pending
    | Value.Atom a :: rest -> go (Value.atom_string a :: pending) rest
    | Value.Node n :: rest ->
        flush pending;
        E.emit_tree sink n;
        go [] rest
  in
  go [] v

(** [run_serialized prog ~context] — evaluate and serialize in one pass:
    result nodes stream into the buffer without the copy
    {!run_to_nodes} makes.  Byte-identical to serializing
    [run_to_nodes]. *)
let run_serialized ?(meth = E.Xml) ?(indent = false) (p : prog) ~context : string =
  E.to_string ~meth ~indent (fun sink -> emit_result sink (run p ~context))
