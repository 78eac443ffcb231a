(** Location steps as interval conditions over pre/post numbering.  The
    encoding invariants this table relies on (single shared counter,
    leaves take [post = pre], attributes numbered inside their owner's
    interval) are established by [Xdb_rel.Shred]. *)

type col = Pre | Post | Parent
type anchor = Ctx_pre | Ctx_post | Ctx_parent
type op = Eq | Lt | Leq | Gt | Geq

type cond = { col : col; op : op; anchor : anchor }
type kind_filter = K_elem | K_attr | K_text | K_comment | K_pi | K_non_attr

type spec = {
  conds : cond list;
  kinds : kind_filter;
  name : string option;
  reverse : bool;
}

let c col op anchor = { col; op; anchor }

(* (conditions, reverse axis?).  Descendant needs only the pre range:
   intervals nest, so a node starting inside [ctx.pre, ctx.post] also
   ends inside it.  The [Leq Ctx_post] of descendant-or-self is exact
   because a counter value is never shared across nodes (a leaf's
   [post = pre] reuses its own). *)
let axis_conds : Ast.axis -> (cond list * bool) option = function
  | Ast.Self -> Some ([ c Pre Eq Ctx_pre ], false)
  | Ast.Child | Ast.Attribute -> Some ([ c Parent Eq Ctx_pre ], false)
  | Ast.Parent -> Some ([ c Pre Eq Ctx_parent ], false)
  | Ast.Descendant -> Some ([ c Pre Gt Ctx_pre; c Pre Lt Ctx_post ], false)
  | Ast.Descendant_or_self -> Some ([ c Pre Geq Ctx_pre; c Pre Leq Ctx_post ], false)
  | Ast.Ancestor -> Some ([ c Pre Lt Ctx_pre; c Post Gt Ctx_post ], true)
  | Ast.Ancestor_or_self -> Some ([ c Pre Leq Ctx_pre; c Post Geq Ctx_post ], true)
  | Ast.Following -> Some ([ c Pre Gt Ctx_post ], false)
  | Ast.Preceding -> Some ([ c Pre Lt Ctx_pre; c Post Lt Ctx_pre ], true)
  | Ast.Following_sibling -> Some ([ c Parent Eq Ctx_parent; c Pre Gt Ctx_pre ], false)
  | Ast.Preceding_sibling -> Some ([ c Parent Eq Ctx_parent; c Pre Lt Ctx_pre ], true)
  | Ast.Namespace -> None

let compile axis test =
  match axis_conds axis with
  | None -> None
  | Some (conds, reverse) ->
      let attr_axis = axis = Ast.Attribute in
      let spec kinds name = Some { conds; kinds; name; reverse } in
      (* mirrors [Eval.test_matches]: prefixes are ignored (no prefix
         environment), names match on the local part *)
      (match test with
      | Ast.Star | Ast.Prefix_star _ ->
          if attr_axis then spec K_attr None else spec K_elem None
      | Ast.Name_test (_, local) ->
          if attr_axis then spec K_attr (Some local) else spec K_elem (Some local)
      | Ast.Node_type_test Ast.Any_node ->
          if attr_axis then spec K_attr None else spec K_non_attr None
      | Ast.Node_type_test Ast.Text_node -> if attr_axis then None else spec K_text None
      | Ast.Node_type_test Ast.Comment_node ->
          if attr_axis then None else spec K_comment None
      | Ast.Node_type_test (Ast.Pi_node target) ->
          if attr_axis then None else spec K_pi target)

let cond_to_string { col; op; anchor } =
  let col_s = match col with Pre -> "pre" | Post -> "post" | Parent -> "parent" in
  let op_s =
    match op with Eq -> "=" | Lt -> "<" | Leq -> "<=" | Gt -> ">" | Geq -> ">="
  in
  let anchor_s =
    match anchor with
    | Ctx_pre -> "ctx.pre"
    | Ctx_post -> "ctx.post"
    | Ctx_parent -> "ctx.parent"
  in
  Printf.sprintf "%s %s %s" col_s op_s anchor_s
