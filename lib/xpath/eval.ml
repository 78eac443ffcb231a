(** XPath 1.0 evaluator: all thirteen axes, predicates with proximity
    position, the core function library, and extension-function hooks used
    by the XSLT layer ([current()], [key()], [generate-id()], …). *)

module T = Xdb_xml.Types
open Ast

exception Eval_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

module Smap = Map.Make (String)

type context = {
  node : T.node;
  position : int;  (** 1-based proximity position *)
  size : int;
  vars : Value.t Smap.t;
  extensions : (string * extension) list;
      (** extra functions, looked up after the core library *)
  current : T.node option;  (** XSLT current() node *)
  assume_predicates : bool;
      (** partial-evaluation mode (paper §4.1): value predicates are
          conservatively assumed true *)
}

and extension = context -> Value.t list -> Value.t

let make_context ?(vars = Smap.empty) ?(extensions = []) ?(assume_predicates = false) ?current
    node =
  { node; position = 1; size = 1; vars; extensions; current; assume_predicates }

let bind_var ctx name v = { ctx with vars = Smap.add name v ctx.vars }

(* ------------------------------------------------------------------ *)
(* Axes                                                               *)
(* ------------------------------------------------------------------ *)

(* nearest-first (reverse document order): parent, grandparent, …, root *)
let rec ancestors n acc =
  match n.T.parent with None -> List.rev acc | Some p -> ancestors p (p :: acc)

(* nodes yielded in axis order (reverse axes yield reverse document order,
   i.e. proximity order, which is what positional predicates count in;
   [eval_step] re-sorts final node-sets to document order afterwards) *)
let rec axis_nodes axis n =
  match axis with
  | Self -> [ n ]
  | Child -> n.T.children
  | Parent -> ( match n.T.parent with None -> [] | Some p -> [ p ])
  | Attribute -> n.T.attributes
  | Namespace -> []
  | Descendant -> T.descendants n
  | Descendant_or_self -> n :: T.descendants n
  | Ancestor -> ancestors n []
  | Ancestor_or_self -> n :: ancestors n []
  (* an attribute has no siblings (§2.2), though its owner is its parent *)
  | (Following_sibling | Preceding_sibling) when T.is_attribute n -> []
  | Following_sibling -> (
      match n.T.parent with
      | None -> []
      | Some p ->
          let rec after = function
            | [] -> []
            | x :: rest -> if x == n then rest else after rest
          in
          after p.T.children)
  | Preceding_sibling -> (
      match n.T.parent with
      | None -> []
      | Some p ->
          let rec before acc = function
            | [] -> acc
            | x :: rest -> if x == n then acc else before (x :: acc) rest
          in
          before [] p.T.children)
  (* an attribute sits in document order right after its owner's start,
     before the owner's children (§5.1): what follows it is the owner's
     descendants, then what follows the owner; what precedes it is what
     precedes the owner, which is its ancestor *)
  | Following when T.is_attribute n -> (
      match n.T.parent with
      | None -> []
      | Some owner -> T.descendants owner @ axis_nodes Following owner)
  | Preceding when T.is_attribute n -> (
      match n.T.parent with None -> [] | Some owner -> axis_nodes Preceding owner)
  | Following ->
      (* all nodes after n in document order, excluding descendants *)
      let rec collect m acc =
        match m.T.parent with
        | None -> acc
        | Some p ->
            let rec after = function
              | [] -> []
              | x :: rest -> if x == m then rest else after rest
            in
            let sibs = after p.T.children in
            let here =
              List.concat_map (fun s -> s :: T.descendants s) sibs
            in
            collect p (acc @ here)
      in
      collect n []
  | Preceding ->
      let ancs = ancestors n [] in
      let rec collect m acc =
        match m.T.parent with
        | None -> acc
        | Some p ->
            let rec before bcc = function
              | [] -> bcc
              | x :: rest -> if x == m then bcc else before (x :: bcc) rest
            in
            let sibs = before [] p.T.children (* reverse doc order *) in
            let here =
              List.concat_map (fun s -> List.rev (s :: T.descendants s)) sibs
            in
            collect p (acc @ here)
      in
      List.filter (fun x -> not (List.memq x ancs)) (collect n [])

let principal_is_element = function Attribute | Namespace -> false | _ -> true

let test_matches axis test (n : T.node) =
  match test with
  | Star -> (
      match n.T.kind with
      | T.Element _ -> principal_is_element axis
      | T.Attribute _ -> not (principal_is_element axis)
      | _ -> false)
  | Prefix_star _ -> (
      (* without a prefix environment we match any namespace *)
      match n.T.kind with
      | T.Element _ -> principal_is_element axis
      | T.Attribute _ -> not (principal_is_element axis)
      | _ -> false)
  | Name_test (_, local) -> (
      match n.T.kind with
      | T.Element q -> principal_is_element axis && String.equal q.local local
      | T.Attribute (q, _) -> (not (principal_is_element axis)) && String.equal q.local local
      | _ -> false)
  | Node_type_test Any_node -> true
  | Node_type_test Text_node -> T.is_text n
  | Node_type_test Comment_node -> ( match n.T.kind with T.Comment _ -> true | _ -> false)
  | Node_type_test (Pi_node target) -> (
      match n.T.kind with
      | T.Pi (t, _) -> ( match target with None -> true | Some tg -> String.equal t tg)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Core function library                                              *)
(* ------------------------------------------------------------------ *)

let fn_arity name n_expected n_given =
  if n_expected <> n_given then
    err "function %s expects %d argument(s), got %d" name n_expected n_given

(* the first index of [sub] in [s]: contains(), substring-before() and
   substring-after() *)
let find_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec at i j = j = lb || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + lb > ls then None else if at i 0 then Some i else go (i + 1) in
  go 0

let substring_xpath s start len_opt =
  (* XPath substring(): 1-based, rounding, NaN handling *)
  let n = String.length s in
  let round f = Float.round f in
  let start = round start in
  if Float.is_nan start then ""
  else
    let finish =
      match len_opt with
      | None -> Float.of_int (n + 1)
      | Some l -> if Float.is_nan l then Float.nan else start +. round l
    in
    if Float.is_nan finish then ""
    else
      let lo = int_of_float (Float.max start 1.0) in
      let hi =
        if finish = Float.infinity then n + 1
        else int_of_float (Float.min finish (Float.of_int (n + 1)))
      in
      if hi <= lo then "" else String.sub s (lo - 1) (hi - lo)

let translate_xpath s from_s to_s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match String.index_opt from_s c with
      | None -> Buffer.add_char buf c
      | Some i -> if i < String.length to_s then Buffer.add_char buf to_s.[i])
    s;
  Buffer.contents buf

let normalize_space s =
  let words =
    String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
  in
  String.concat " " (List.filter (fun w -> w <> "") words)

(** XSLT 1.0 format-number() picture handling (§12.3): [0] and [#] digit
    slots, [.] decimal point, [,] grouping separators, [%] percent, and a
    [;]-separated negative subpattern. *)
let format_number (value : float) (picture : string) : string =
  if Float.is_nan value then "NaN"
  else if value = Float.infinity then "Infinity"
  else if value = Float.neg_infinity then "-Infinity"
  else
    let positive, negative =
      match String.index_opt picture ';' with
      | Some i ->
          ( String.sub picture 0 i,
            Some (String.sub picture (i + 1) (String.length picture - i - 1)) )
      | None -> (picture, None)
    in
    let render sub v =
      let percent = String.contains sub '%' in
      let v = if percent then v *. 100.0 else v in
      (* literal prefix/suffix around the digit grammar *)
      let is_digit_char c = c = '0' || c = '#' || c = '.' || c = ',' in
      let len = String.length sub in
      let first =
        let rec go i = if i >= len then len else if is_digit_char sub.[i] then i else go (i + 1) in
        go 0
      in
      let last =
        let rec go i = if i < 0 then -1 else if is_digit_char sub.[i] then i else go (i - 1) in
        go (len - 1)
      in
      let prefix = if first > 0 then String.sub sub 0 first else "" in
      let suffix = if last >= 0 && last < len - 1 then String.sub sub (last + 1) (len - 1 - last) else "" in
      let prefix = String.concat "" (List.filter (fun c -> c <> "%") (List.init (String.length prefix) (fun i -> String.make 1 prefix.[i]))) in
      let core = if last >= first then String.sub sub first (last - first + 1) else "0" in
      let sub = core in
      (* split the subpicture at the decimal point *)
      let int_pic, frac_pic =
        match String.index_opt sub '.' with
        | Some i -> (String.sub sub 0 i, String.sub sub (i + 1) (String.length sub - i - 1))
        | None -> (sub, "")
      in
      let count c s = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 s in
      let min_int = count '0' int_pic in
      let min_frac = count '0' frac_pic in
      let max_frac = min_frac + count '#' frac_pic in
      (* grouping size: digits between the last ',' and the decimal point *)
      let group_size =
        match String.rindex_opt int_pic ',' with
        | Some i ->
            let tail = String.sub int_pic (i + 1) (String.length int_pic - i - 1) in
            let n = count '0' tail + count '#' tail in
            if n > 0 then Some n else None
        | None -> None
      in
      let scaled = Float.abs v in
      let rounded =
        let m = Float.of_int (int_of_float (10.0 ** Float.of_int max_frac)) in
        if max_frac = 0 then Float.round scaled else Float.round (scaled *. m) /. m
      in
      let int_part = Float.to_int rounded in
      let frac_value = rounded -. Float.of_int int_part in
      let int_str =
        let raw = string_of_int int_part in
        let raw = if String.length raw < min_int then String.make (min_int - String.length raw) '0' ^ raw else raw in
        match group_size with
        | None -> raw
        | Some g ->
            let buf = Buffer.create 16 in
            let len = String.length raw in
            String.iteri
              (fun i c ->
                if i > 0 && (len - i) mod g = 0 then Buffer.add_char buf ',';
                Buffer.add_char buf c)
              raw;
            Buffer.contents buf
      in
      let frac_str =
        if max_frac = 0 then ""
        else
          let digits =
            Printf.sprintf "%.*f" max_frac frac_value
            |> fun s -> String.sub s 2 (String.length s - 2)
          in
          (* trim optional (#) trailing zeros down to min_frac *)
          let rec trim s =
            if String.length s > min_frac && s.[String.length s - 1] = '0' then
              trim (String.sub s 0 (String.length s - 1))
            else s
          in
          trim digits
      in
      let body = if frac_str = "" then int_str else int_str ^ "." ^ frac_str in
      prefix ^ body ^ suffix
    in
    if value < 0.0 then
      match negative with
      | Some sub -> render sub value
      | None -> "-" ^ render positive value
    else render positive value

let generate_id n =
  (* stable within a tree thanks to ordinal stamps; fall back to address *)
  if n.T.order <> 0 then Printf.sprintf "id%d" n.T.order
  else Printf.sprintf "idx%d" (Hashtbl.hash (Obj.repr n))

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                              *)
(* ------------------------------------------------------------------ *)

let rec eval ctx expr : Value.t =
  match expr with
  | Literal s -> Value.Str s
  | Number f -> Value.Num f
  | Var v -> (
      match Smap.find_opt v ctx.vars with
      | Some value -> value
      | None -> err "unbound variable $%s" v)
  | Neg e -> Value.Num (-.Value.number_value (eval ctx e))
  | Binop (Or, a, b) ->
      Value.Bool (Value.boolean_value (eval ctx a) || Value.boolean_value (eval ctx b))
  | Binop (And, a, b) ->
      Value.Bool (Value.boolean_value (eval ctx a) && Value.boolean_value (eval ctx b))
  | Binop (Eq, a, b) -> Value.Bool (Value.compare_values `Eq (eval ctx a) (eval ctx b))
  | Binop (Neq, a, b) -> Value.Bool (Value.compare_values `Neq (eval ctx a) (eval ctx b))
  | Binop (Lt, a, b) -> Value.Bool (Value.compare_values `Lt (eval ctx a) (eval ctx b))
  | Binop (Leq, a, b) -> Value.Bool (Value.compare_values `Leq (eval ctx a) (eval ctx b))
  | Binop (Gt, a, b) -> Value.Bool (Value.compare_values `Gt (eval ctx a) (eval ctx b))
  | Binop (Geq, a, b) -> Value.Bool (Value.compare_values `Geq (eval ctx a) (eval ctx b))
  | Binop (Plus, a, b) ->
      Value.Num (Value.number_value (eval ctx a) +. Value.number_value (eval ctx b))
  | Binop (Minus, a, b) ->
      Value.Num (Value.number_value (eval ctx a) -. Value.number_value (eval ctx b))
  | Binop (Mul, a, b) ->
      Value.Num (Value.number_value (eval ctx a) *. Value.number_value (eval ctx b))
  | Binop (Div, a, b) ->
      Value.Num (Value.number_value (eval ctx a) /. Value.number_value (eval ctx b))
  | Binop (Mod, a, b) ->
      Value.Num (Float.rem (Value.number_value (eval ctx a)) (Value.number_value (eval ctx b)))
  | Binop (Union, a, b) ->
      let na = Value.node_set (eval ctx a) and nb = Value.node_set (eval ctx b) in
      Value.nodes (na @ nb)
  | Call (name, args) -> eval_call ctx name args
  | Path p -> Value.Nodes (eval_path ctx p)
  | Filter (primary, preds, steps) -> (
      let v = eval ctx primary in
      match (preds, steps) with
      | [], [] -> v
      | _ ->
          let ns = Value.node_set v in
          let ns = List.fold_left (fun ns p -> filter_predicate ctx ns p) ns preds in
          Value.Nodes (eval_steps ctx ns steps))

and eval_path ctx p =
  let start = if p.absolute then [ T.root_of ctx.node ] else [ ctx.node ] in
  eval_steps ctx start p.steps

and eval_steps ctx start steps =
  List.fold_left (fun nodes step -> eval_step ctx nodes step) start steps

and eval_step ctx nodes step =
  let result =
    List.concat_map
      (fun n ->
        let candidates = axis_nodes step.axis n in
        let matching = List.filter (test_matches step.axis step.test) candidates in
        List.fold_left (fun ns pred -> filter_predicate ctx ns pred) matching step.predicates)
      nodes
  in
  Value.sort_nodes result

and filter_predicate ctx nodes pred =
  (* [nodes] must arrive in axis (proximity) order: document order for
     forward axes, reverse document order for reverse axes — which is what
     {!axis_nodes} yields — so the proximity position is just [i + 1] *)
  if ctx.assume_predicates then nodes
  else
    let size = List.length nodes in
    List.filteri
      (fun i n ->
        let ctx' = { ctx with node = n; position = i + 1; size } in
        match eval ctx' pred with
        | Value.Num f -> Float.of_int (i + 1) = f
        | v -> Value.boolean_value v)
      nodes

and eval_call ctx name args =
  let v i = eval ctx (List.nth args i) in
  let nargs = List.length args in
  let str_arg i = Value.string_value (v i) in
  let num_arg i = Value.number_value (v i) in
  match name with
  | "last" ->
      fn_arity name 0 nargs;
      Value.Num (Float.of_int ctx.size)
  | "position" ->
      fn_arity name 0 nargs;
      Value.Num (Float.of_int ctx.position)
  | "count" ->
      fn_arity name 1 nargs;
      Value.Num (Float.of_int (List.length (Value.node_set (v 0))))
  | "id" ->
      fn_arity name 1 nargs;
      (* minimal: match elements whose 'id' attribute equals a token *)
      let tokens =
        match v 0 with
        | Value.Nodes ns -> List.concat_map (fun n -> String.split_on_char ' ' (T.string_value n)) ns
        | other -> String.split_on_char ' ' (Value.string_value other)
      in
      let root = T.root_of ctx.node in
      let all = root :: T.descendants root in
      Value.nodes
        (List.filter
           (fun n ->
             match T.attribute n "id" with Some x -> List.mem x tokens | None -> false)
           (List.filter T.is_element all))
  | "local-name" | "name" ->
      if nargs > 1 then err "function %s expects at most 1 argument" name;
      let target =
        if nargs = 0 then Some ctx.node
        else match Value.node_set (v 0) with [] -> None | n :: _ -> Some n
      in
      Value.Str
        (match target with
        | None -> ""
        | Some n -> (
            match (name, n.T.kind) with
            | "name", (T.Element q | T.Attribute (q, _)) -> T.string_of_qname q
            | _ -> T.local_name n))
  | "namespace-uri" ->
      let target =
        if nargs = 0 then Some ctx.node
        else match Value.node_set (v 0) with [] -> None | n :: _ -> Some n
      in
      Value.Str
        (match target with
        | Some { T.kind = T.Element q | T.Attribute (q, _); _ } -> q.uri
        | _ -> "")
  | "string" ->
      if nargs = 0 then Value.Str (T.string_value ctx.node) else Value.Str (str_arg 0)
  | "concat" ->
      if nargs < 2 then err "concat expects at least 2 arguments";
      Value.Str (String.concat "" (List.map (fun e -> Value.string_value (eval ctx e)) args))
  | "starts-with" ->
      fn_arity name 2 nargs;
      let s = str_arg 0 and p = str_arg 1 in
      Value.Bool (String.length s >= String.length p && String.sub s 0 (String.length p) = p)
  | "contains" ->
      fn_arity name 2 nargs;
      Value.Bool (find_sub (str_arg 0) (str_arg 1) <> None)
  | "substring-before" ->
      fn_arity name 2 nargs;
      let s = str_arg 0 in
      Value.Str (match find_sub s (str_arg 1) with Some i -> String.sub s 0 i | None -> "")
  | "substring-after" ->
      fn_arity name 2 nargs;
      let s = str_arg 0 and sub = str_arg 1 in
      Value.Str
        (match find_sub s sub with
        | Some i -> String.sub s (i + String.length sub) (String.length s - i - String.length sub)
        | None -> "")
  | "substring" ->
      if nargs <> 2 && nargs <> 3 then err "substring expects 2 or 3 arguments";
      Value.Str
        (substring_xpath (str_arg 0) (num_arg 1) (if nargs = 3 then Some (num_arg 2) else None))
  | "string-length" ->
      if nargs > 1 then err "string-length expects at most 1 argument";
      let s = if nargs = 0 then T.string_value ctx.node else str_arg 0 in
      Value.Num (Float.of_int (String.length s))
  | "normalize-space" ->
      if nargs > 1 then err "normalize-space expects at most 1 argument";
      let s = if nargs = 0 then T.string_value ctx.node else str_arg 0 in
      Value.Str (normalize_space s)
  | "translate" ->
      fn_arity name 3 nargs;
      Value.Str (translate_xpath (str_arg 0) (str_arg 1) (str_arg 2))
  | "boolean" ->
      fn_arity name 1 nargs;
      Value.Bool (Value.boolean_value (v 0))
  | "not" ->
      fn_arity name 1 nargs;
      Value.Bool (not (Value.boolean_value (v 0)))
  | "true" ->
      fn_arity name 0 nargs;
      Value.Bool true
  | "false" ->
      fn_arity name 0 nargs;
      Value.Bool false
  | "lang" ->
      fn_arity name 1 nargs;
      let wanted = String.lowercase_ascii (str_arg 0) in
      let rec find n =
        match T.attribute ~uri:T.xml_uri n "lang" with
        | Some l ->
            let l = String.lowercase_ascii l in
            Some (l = wanted || (String.length l > String.length wanted
                                 && String.sub l 0 (String.length wanted) = wanted
                                 && l.[String.length wanted] = '-'))
        | None -> ( match n.T.parent with None -> None | Some p -> find p)
      in
      Value.Bool (match find ctx.node with Some b -> b | None -> false)
  | "number" ->
      if nargs > 1 then err "number expects at most 1 argument";
      if nargs = 0 then Value.Num (Value.number_of_string (T.string_value ctx.node))
      else Value.Num (num_arg 0)
  | "sum" ->
      fn_arity name 1 nargs;
      let ns = Value.node_set (v 0) in
      Value.Num
        (List.fold_left (fun acc n -> acc +. Value.number_of_string (T.string_value n)) 0.0 ns)
  | "floor" ->
      fn_arity name 1 nargs;
      Value.Num (Float.floor (num_arg 0))
  | "ceiling" ->
      fn_arity name 1 nargs;
      Value.Num (Float.ceil (num_arg 0))
  | "round" ->
      fn_arity name 1 nargs;
      Value.Num (Value.round_number (num_arg 0))
  | "format-number" ->
      fn_arity name 2 nargs;
      Value.Str (format_number (num_arg 0) (str_arg 1))
  | "current" ->
      fn_arity name 0 nargs;
      Value.Nodes (match ctx.current with Some n -> [ n ] | None -> [ ctx.node ])
  | "generate-id" ->
      if nargs > 1 then err "generate-id expects at most 1 argument";
      let target =
        if nargs = 0 then Some ctx.node
        else match Value.node_set (v 0) with [] -> None | n :: _ -> Some n
      in
      Value.Str (match target with Some n -> generate_id n | None -> "")
  | _ -> (
      match List.assoc_opt name ctx.extensions with
      | Some f -> f ctx (List.map (eval ctx) args)
      | None -> err "unknown function %s()" name)

(** [eval_string ctx s] parses and evaluates the XPath expression [s]. *)
let eval_string ctx s = eval ctx (Parser.parse s)

(** Convenience: select nodes with an expression string. *)
let select ctx s = Value.node_set (eval_string ctx s)
