(** XPath 1.0 abstract syntax. *)

type axis =
  | Child
  | Descendant
  | Parent
  | Ancestor
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding
  | Attribute
  | Namespace
  | Self
  | Descendant_or_self
  | Ancestor_or_self

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Following -> "following"
  | Preceding -> "preceding"
  | Attribute -> "attribute"
  | Namespace -> "namespace"
  | Self -> "self"
  | Descendant_or_self -> "descendant-or-self"
  | Ancestor_or_self -> "ancestor-or-self"

(** Whether an axis yields nodes in reverse document order (affects the
    meaning of positional predicates). *)
let is_reverse_axis = function
  | Parent | Ancestor | Ancestor_or_self | Preceding | Preceding_sibling -> true
  | Child | Descendant | Following_sibling | Following | Attribute | Namespace | Self
  | Descendant_or_self ->
      false

type node_test =
  | Name_test of string option * string  (** optional prefix, local part *)
  | Star  (** [*] — any element (or attribute on the attribute axis) *)
  | Prefix_star of string  (** [p:*] *)
  | Node_type_test of node_type

and node_type = Any_node | Text_node | Comment_node | Pi_node of string option

type binop =
  | Or
  | And
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | Plus
  | Minus
  | Mul
  | Div
  | Mod
  | Union

let binop_name = function
  | Or -> "or"
  | And -> "and"
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="
  | Plus -> "+"
  | Minus -> "-"
  | Mul -> "*"
  | Div -> "div"
  | Mod -> "mod"
  | Union -> "|"

type expr =
  | Binop of binop * expr * expr
  | Neg of expr
  | Literal of string
  | Number of float
  | Var of string
  | Call of string * expr list
  | Path of path
  | Filter of expr * expr list * step list
      (** primary expression, predicates, trailing path steps *)

and path = { absolute : bool; steps : step list }

and step = { axis : axis; test : node_test; predicates : expr list }

(** Pretty-print an expression back to (canonical) XPath syntax. *)
let rec to_string = function
  | Binop (Union, a, b) -> to_string a ^ " | " ^ to_string b
  | Binop (((Or | And) as op), a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (binop_name op) (to_string b)
  | Binop (op, a, b) -> Printf.sprintf "%s %s %s" (to_string a) (binop_name op) (to_string b)
  | Neg e -> "-" ^ to_string e
  | Literal s -> "\"" ^ s ^ "\""
  | Number f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
  | Var v -> "$" ^ v
  | Call (f, args) -> f ^ "(" ^ String.concat ", " (List.map to_string args) ^ ")"
  | Path p -> path_to_string p
  | Filter (e, preds, steps) ->
      let base = "(" ^ to_string e ^ ")" ^ String.concat "" (List.map pred_to_string preds) in
      if steps = [] then base
      else base ^ "/" ^ String.concat "/" (List.map step_to_string steps)

and pred_to_string e = "[" ^ to_string e ^ "]"

and step_to_string s =
  let test =
    match s.test with
    | Name_test (None, l) -> l
    | Name_test (Some p, l) -> p ^ ":" ^ l
    | Star -> "*"
    | Prefix_star p -> p ^ ":*"
    | Node_type_test Any_node -> "node()"
    | Node_type_test Text_node -> "text()"
    | Node_type_test Comment_node -> "comment()"
    | Node_type_test (Pi_node None) -> "processing-instruction()"
    | Node_type_test (Pi_node (Some t)) -> Printf.sprintf "processing-instruction(\"%s\")" t
  in
  let prefix =
    match s.axis with
    | Child -> ""
    | Attribute -> "@"
    | ax -> axis_name ax ^ "::"
  in
  prefix ^ test ^ String.concat "" (List.map pred_to_string s.predicates)

and path_to_string p =
  let body = String.concat "/" (List.map step_to_string p.steps) in
  if p.absolute then if body = "" then "/" else "/" ^ body else body

(** Simple constructors used by the rewriters. *)
let child_step ?(predicates = []) name =
  { axis = Child; test = Name_test (None, name); predicates }

let rel_path steps = Path { absolute = false; steps }

(** [bind_vars f e] — [e] with each variable [$v] for which [f v] is
    [Some x] replaced by the number [x], step predicates included. *)
let rec bind_vars f e =
  match e with
  | Var v -> ( match f v with Some x -> Number x | None -> e)
  | Literal _ | Number _ -> e
  | Binop (op, a, b) -> Binop (op, bind_vars f a, bind_vars f b)
  | Neg a -> Neg (bind_vars f a)
  | Call (name, args) -> Call (name, List.map (bind_vars f) args)
  | Path p -> Path { p with steps = List.map (bind_step_vars f) p.steps }
  | Filter (base, preds, steps) ->
      Filter (bind_vars f base, List.map (bind_vars f) preds, List.map (bind_step_vars f) steps)

and bind_step_vars f s =
  match s.predicates with [] -> s | ps -> { s with predicates = List.map (bind_vars f) ps }
