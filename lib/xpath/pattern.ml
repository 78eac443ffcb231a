(** XSLT 1.0 match patterns (XSLT 1.0 §5.2) over the XPath AST.

    A pattern is a union of location-path patterns restricted to the
    [child] and [attribute] axes plus the [//] abbreviation.  Matching is
    implemented right-to-left: the last step must match the candidate node
    and earlier steps must match its (an)cestors.

    Default priorities follow XSLT 1.0 §5.5. *)

module T = Xdb_xml.Types
open Ast

exception Invalid_pattern of string

type step_link = Direct_child | Any_ancestor

type pattern_path = {
  from_root : bool;  (** pattern anchored at the document node ("/...") *)
  rev_steps : (step * step_link) list;
      (** steps right-to-left; the link describes how a step connects to the
          one on its left *)
}

type t = { source : string; alternatives : pattern_path list }

let rec compile_steps ~absolute steps =
  (* walk left-to-right, collapsing descendant-or-self::node() into links *)
  let rec go link acc = function
    | [] -> acc
    | { axis = Descendant_or_self; test = Node_type_test Any_node; predicates = [] } :: rest ->
        go Any_ancestor acc rest
    | ({ axis = Child; _ } as s) :: rest | ({ axis = Attribute; _ } as s) :: rest ->
        go Direct_child ((s, link) :: acc) rest
    | s :: _ ->
        raise
          (Invalid_pattern
             (Printf.sprintf "axis %s not allowed in a match pattern" (axis_name s.axis)))
  in
  let first_link = if absolute then Direct_child else Any_ancestor in
  { from_root = absolute; rev_steps = go first_link [] steps }

and compile_expr = function
  | Path p when p.steps = [] && p.absolute ->
      (* pattern "/" matches the document node *)
      [ { from_root = true; rev_steps = [] } ]
  | Path p -> [ compile_steps ~absolute:p.absolute p.steps ]
  | Binop (Union, a, b) -> compile_expr a @ compile_expr b
  | _ -> raise (Invalid_pattern "a match pattern must be a union of location paths")

(** [parse s] parses and validates pattern syntax. *)
let parse s =
  let e = Parser.parse s in
  { source = s; alternatives = compile_expr e }

(* Does [node] pass the predicates of [step], evaluated among the candidate
   siblings reachable from its parent by the step's axis and test? *)
let predicates_hold ctx step node =
  match step.predicates with
  | [] -> true
  | preds -> (
      match node.T.parent with
      | None -> List.for_all (fun p -> Value.boolean_value (Eval.eval { ctx with Eval.node } p)) preds
      | Some parent ->
          let candidates = Eval.axis_nodes step.axis parent in
          let matching = List.filter (Eval.test_matches step.axis step.test) candidates in
          let survivors =
            List.fold_left (fun ns p -> Eval.filter_predicate ctx ns p) matching preds
          in
          List.memq node survivors)

let rec match_rev ctx rev_steps from_root (node : T.node) =
  match rev_steps with
  | [] -> (not from_root) || T.is_document node
  | (step, link) :: rest -> (
      Eval.test_matches step.axis step.test node
      && predicates_hold ctx step node
      &&
      match node.T.parent with
      | None -> rest = [] && ((not from_root) || T.is_document node)
      | Some parent -> (
          match link with
          | Direct_child -> match_rev ctx rest from_root parent
          | Any_ancestor ->
              let rec try_anc (p : T.node) =
                match_rev ctx rest from_root p
                || match p.T.parent with None -> false | Some gp -> try_anc gp
              in
              (rest = [] && not from_root) || try_anc parent))

(** [matches ctx pat node] — does [node] match the pattern? *)
let matches ctx pat node =
  List.exists
    (fun alt ->
      match alt.rev_steps with
      | [] -> alt.from_root && T.is_document node
      | _ -> match_rev ctx alt.rev_steps alt.from_root node)
    pat.alternatives

(** Default priority of a single-alternative pattern (XSLT 1.0 §5.5). *)
let alternative_priority alt =
  match alt.rev_steps with
  | [ (step, link) ] when link = Any_ancestor && not alt.from_root -> (
      if step.predicates <> [] then 0.5
      else
        match step.test with
        | Name_test _ -> 0.0
        | Node_type_test (Pi_node (Some _)) -> 0.0
        | Prefix_star _ -> -0.25
        | Star | Node_type_test _ -> -0.5)
  | _ -> 0.5

(** Split a pattern into its alternatives so each can carry its own default
    priority (XSLT 1.0 treats a union template as separate rules). *)
let split pat =
  List.map (fun alt -> ({ source = pat.source; alternatives = [ alt ] }, alternative_priority alt))
    pat.alternatives

(** Local names an alternative can possibly match at its last step, used for
    hash-table template dispatch in the VM.  [None] = could match anything. *)
let dispatch_key pat =
  match pat.alternatives with
  | [ { rev_steps = (step, _) :: _; _ } ] -> (
      match step.test with
      | Name_test (_, local) -> Some (`Name local)
      | Node_type_test Text_node -> Some `Text
      | Node_type_test Comment_node -> Some `Comment
      | Node_type_test (Pi_node _) -> Some `Pi
      | Star | Prefix_star _ -> Some `Any_element
      | Node_type_test Any_node -> None)
  | [ { rev_steps = []; from_root = true; _ } ] -> Some `Root
  | _ -> None

let to_string pat = pat.source
