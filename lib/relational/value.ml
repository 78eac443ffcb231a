(** SQL values, including the XMLType of SQL/XML.

    [Xml] carries a node *forest* so that [XMLConcat]/[XMLAgg] results (a
    sequence of top-level nodes) are first-class, as in SQL/XML. *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Xml of X.node list
  | Xml_stream of (E.sink -> unit)

type column_type = Tint | Tfloat | Tstr | Txml

let type_name = function Tint -> "INT" | Tfloat -> "FLOAT" | Tstr -> "VARCHAR" | Txml -> "XMLTYPE"

let value_type_name = function
  | Null -> "NULL"
  | Int _ -> "INT"
  | Float _ -> "FLOAT"
  | Str _ -> "VARCHAR"
  | Xml _ | Xml_stream _ -> "XMLTYPE"

exception Type_error of string

let terr fmt = Printf.ksprintf (fun m -> raise (Type_error m)) fmt

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | Str s -> ( match int_of_string_opt (String.trim s) with Some i -> i | None -> terr "cannot cast %S to INT" s)
  | v -> terr "cannot cast %s to INT" (value_type_name v)

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | Str s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> f
      | None -> terr "cannot cast %S to FLOAT" s)
  | v -> terr "cannot cast %s to FLOAT" (value_type_name v)

(* float → string: XPath 1.0 string(number), so that SQL results compare
   equal with XQuery-evaluated results *)
let float_to_string = Xdb_xpath.Value.string_of_number

(** Materialize a streamed XMLType into nodes (for paths that need a DOM,
    e.g. casting back into XPath context). *)
let stream_to_nodes produce =
  let b = E.tree_builder () in
  produce (E.builder_sink b);
  E.builder_result b

let to_string = function
  | Null -> ""
  | Int i -> Xdb_xpath.Value.format_int i
  | Float f -> float_to_string f
  | Str s -> s
  | Xml nodes -> Xdb_xml.Serializer.node_list_to_string nodes
  | Xml_stream produce -> E.to_string produce

let is_null = function Null -> true | _ -> false
let is_nan = function Float f -> Float.is_nan f | _ -> false

(** SQL three-valued comparison collapses here to an option: [None] when
    either side is NULL. *)
let compare_sql a b : int option =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (compare x y)
  | (Int _ | Float _), (Int _ | Float _) -> Some (compare (to_float a) (to_float b))
  | Str x, Str y -> Some (compare x y)
  | Str _, (Int _ | Float _) | (Int _ | Float _), Str _ ->
      Some (compare (to_float a) (to_float b))
  | (Xml _ | Xml_stream _), _ | _, (Xml _ | Xml_stream _) ->
      terr "XMLTYPE values are not comparable"

(** Total order for B-tree keys: NULLs sort first, numerics before strings. *)
let compare_key a b =
  let rank = function
    | Null -> 0
    | Int _ | Float _ -> 1
    | Str _ -> 2
    | Xml _ | Xml_stream _ -> 3
  in
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> compare x y
  | (Int _ | Float _), (Int _ | Float _) -> compare (to_float a) (to_float b)
  | Str x, Str y -> compare x y
  | _ -> compare (rank a) (rank b)

let equal_sql a b = match compare_sql a b with Some 0 -> true | _ -> false

(** Render for result display / tests. *)
let show = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str s -> "'" ^ s ^ "'"
  | Xml nodes -> Xdb_xml.Serializer.node_list_to_string nodes
  | Xml_stream produce -> E.to_string produce
