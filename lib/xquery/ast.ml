(** Abstract syntax for the XQuery subset targeted by the XSLT rewrite.

    The subset is exactly the language the paper's generated queries use
    (Tables 8, 12–15, 17, 19, 21): FLWOR expressions, direct and computed
    constructors, conditionals, [instance of element(n)] tests, path
    expressions, the [fn:*] functions shared with XPath, and user-defined
    functions (emitted in non-inline mode).  Path steps reuse the XPath AST
    so both languages share one XPath core, mirroring the paper's "XSLT and
    XQuery share the same XPath" observation (§3). *)

module XP = Xdb_xpath.Ast

type atom = Str of string | Num of float | Bool of bool

type item_type =
  | It_element of string option  (** [element()] / [element(name)] *)
  | It_text
  | It_comment
  | It_node
  | It_attribute of string option

type expr =
  | Seq of expr list  (** comma sequence; [Seq []] is the empty sequence *)
  | Flwor of clause list * expr  (** clauses + return *)
  | If of expr * expr * expr
  | Literal of atom
  | Var of string
  | Context_item  (** [.] *)
  | Root  (** leading [/] — root of the context item's tree *)
  | Fn_call of string * expr list  (** built-in functions, [fn:] prefix dropped *)
  | User_call of string * expr list
  | Path of expr * XP.step list  (** [base/step/…] *)
  | Direct_elem of string * (string * attr_piece list) list * expr list
      (** [<name a="…{e}…">content</name>] *)
  | Comp_elem of expr * expr  (** [element {name-expr} {content}] *)
  | Comp_attr of string * expr
  | Comp_text of expr
  | Comp_comment of expr
  | Binop of XP.binop * expr * expr
  | Neg of expr
  | Instance_of of expr * item_type
  | Quantified of { every : bool; var : string; source : expr; satisfies : expr }
      (** [some $v in src satisfies cond] / [every …] *)

and attr_piece = Attr_str of string | Attr_expr of expr

and clause =
  | For of { var : string; pos_var : string option; source : expr }
  | Let of { var : string; value : expr }
  | Where of expr
  | Order_by of (expr * bool) list  (** expr, descending? *)

type fundef = { fname : string; params : string list; body : expr }

type prog = {
  var_decls : (string * expr) list;  (** [declare variable $v := e;] in order *)
  funs : fundef list;
  body : expr;
}

let prog ?(var_decls = []) ?(funs = []) body = { var_decls; funs; body }

(** The paper's queries start with [declare variable $var000 := .;]. *)
let with_context_var name body = prog ~var_decls:[ (name, Context_item) ] body

(* --- conveniences used by the XSLT→XQuery generator ------------------- *)

let str s = Literal (Str s)
let text s = Comp_text (Literal (Str s))
let var v = Var v
let path_from base names = Path (base, List.map XP.child_step names)
let flet v value body = Flwor ([ Let { var = v; value } ], body)
let ffor v source body = Flwor ([ For { var = v; pos_var = None; source } ], body)

let fn name args = Fn_call (name, args)

(** Structural size of an expression — used by ablation benches to compare
    generated-query complexity. *)
let rec size = function
  | Seq es -> 1 + List.fold_left (fun a e -> a + size e) 0 es
  | Flwor (cs, r) ->
      1 + size r
      + List.fold_left
          (fun a c ->
            a
            +
            match c with
            | For { source; _ } -> size source
            | Let { value; _ } -> size value
            | Where e -> size e
            | Order_by keys -> List.fold_left (fun a (e, _) -> a + size e) 0 keys)
          0 cs
  | If (c, t, e) -> 1 + size c + size t + size e
  | Literal _ | Var _ | Context_item | Root -> 1
  | Fn_call (_, args) | User_call (_, args) ->
      1 + List.fold_left (fun a e -> a + size e) 0 args
  | Path (b, steps) -> 1 + size b + List.length steps
  | Direct_elem (_, attrs, content) ->
      1
      + List.fold_left
          (fun a (_, pieces) ->
            a
            + List.fold_left
                (fun a p -> a + match p with Attr_str _ -> 1 | Attr_expr e -> size e)
                0 pieces)
          0 attrs
      + List.fold_left (fun a e -> a + size e) 0 content
  | Comp_elem (n, c) -> 1 + size n + size c
  | Comp_attr (_, e) | Comp_text e | Comp_comment e | Neg e -> 1 + size e
  | Binop (_, a, b) -> 1 + size a + size b
  | Instance_of (e, _) -> 1 + size e
  | Quantified { source; satisfies; _ } -> 1 + size source + size satisfies

(** Number of user-function definitions — the paper's inline statistic
    counts queries "without any function calls". *)
let rec has_user_calls = function
  | User_call _ -> true
  | Seq es -> List.exists has_user_calls es
  | Flwor (cs, r) ->
      has_user_calls r
      || List.exists
           (function
             | For { source; _ } -> has_user_calls source
             | Let { value; _ } -> has_user_calls value
             | Where e -> has_user_calls e
             | Order_by keys -> List.exists (fun (e, _) -> has_user_calls e) keys)
           cs
  | If (c, t, e) -> has_user_calls c || has_user_calls t || has_user_calls e
  | Literal _ | Var _ | Context_item | Root -> false
  | Fn_call (_, args) -> List.exists has_user_calls args
  | Path (b, _) -> has_user_calls b
  | Direct_elem (_, attrs, content) ->
      List.exists
        (fun (_, ps) ->
          List.exists (function Attr_expr e -> has_user_calls e | Attr_str _ -> false) ps)
        attrs
      || List.exists has_user_calls content
  | Comp_elem (n, c) -> has_user_calls n || has_user_calls c
  | Comp_attr (_, e) | Comp_text e | Comp_comment e | Neg e -> has_user_calls e
  | Binop (_, a, b) -> has_user_calls a || has_user_calls b
  | Instance_of (e, _) -> has_user_calls e
  | Quantified { source; satisfies; _ } -> has_user_calls source || has_user_calls satisfies

(** [bind_vars f p] — [p] with each free reference to a variable [$v]
    for which [f v] is [Some x] replaced by the number literal [x]
    (XPath step predicates included).  Meant for reserved names that no
    clause binds, so shadowing is not considered. *)
let bind_vars f (p : prog) : prog =
  let step = XP.bind_step_vars f in
  let rec ex e =
    match e with
    | Var v -> ( match f v with Some x -> Literal (Num x) | None -> e)
    | Literal _ | Context_item | Root -> e
    | Seq es -> Seq (List.map ex es)
    | Flwor (cs, r) -> Flwor (List.map clause cs, ex r)
    | If (c, t, e) -> If (ex c, ex t, ex e)
    | Fn_call (n, args) -> Fn_call (n, List.map ex args)
    | User_call (n, args) -> User_call (n, List.map ex args)
    | Path (b, steps) -> Path (ex b, List.map step steps)
    | Direct_elem (n, attrs, content) ->
        let piece = function Attr_expr e -> Attr_expr (ex e) | Attr_str _ as s -> s in
        Direct_elem (n, List.map (fun (a, ps) -> (a, List.map piece ps)) attrs, List.map ex content)
    | Comp_elem (n, c) -> Comp_elem (ex n, ex c)
    | Comp_attr (n, e) -> Comp_attr (n, ex e)
    | Comp_text e -> Comp_text (ex e)
    | Comp_comment e -> Comp_comment (ex e)
    | Binop (op, a, b) -> Binop (op, ex a, ex b)
    | Neg e -> Neg (ex e)
    | Instance_of (e, t) -> Instance_of (ex e, t)
    | Quantified q -> Quantified { q with source = ex q.source; satisfies = ex q.satisfies }
  and clause = function
    | For c -> For { c with source = ex c.source }
    | Let c -> Let { c with value = ex c.value }
    | Where w -> Where (ex w)
    | Order_by ks -> Order_by (List.map (fun (k, d) -> (ex k, d)) ks)
  in
  {
    var_decls = List.map (fun (v, e) -> (v, ex e)) p.var_decls;
    funs = List.map (fun (d : fundef) -> { d with body = ex d.body }) p.funs;
    body = ex p.body;
  }
