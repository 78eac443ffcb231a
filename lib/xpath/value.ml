(** XPath 1.0 value model and type conversions (XPath 1.0 §3.2, §4). *)

module T = Xdb_xml.Types

type t =
  | Nodes of T.node list  (** node-set in document order, duplicates removed *)
  | Bool of bool
  | Num of float
  | Str of string

let type_name = function
  | Nodes _ -> "node-set"
  | Bool _ -> "boolean"
  | Num _ -> "number"
  | Str _ -> "string"

(** Document-order sort + physical dedup of a node list. *)
let sort_nodes nodes =
  let sorted = List.stable_sort T.compare_order nodes in
  let rec dedup = function
    | a :: (b :: _ as rest) when a == b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let nodes ns = Nodes (sort_nodes ns)

(* digits of [m <= 0]; [m mod 10] is in [-9, 0] *)
let rec count_digits m k = if m > -10 then k else count_digits (m / 10) (k + 1)

let rec write_digits b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then write_digits b (m / 10) (i - 1)

(** [format_int n] — [n] in decimal, as [string_of_int n] prints it,
    without going through C printf.  Digits are counted first, so the
    result string is the only allocation.  Works on the non-positive
    image of [n] ([-n] overflows for [min_int]). *)
let format_int n =
  let m = if n < 0 then n else -n in
  let len = count_digits m 1 + if n < 0 then 1 else 0 in
  let b = Bytes.create len in
  write_digits b m (len - 1);
  if n < 0 then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

(** XPath number→string conversion (XPath 1.0 §4.2): integers print
    without a decimal point, both zeros as "0", [NaN] as "NaN" and the
    infinities as "Infinity"/"-Infinity". *)
let string_of_number f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 1e16 then
    (* exact in an OCaml int; [int_of_float (-0.)] is 0 *)
    format_int (int_of_float f)
  else Printf.sprintf "%.12g" f

(* XPath 1.0 §4.4: whitespace (space, tab, CR, LF), an optional minus,
   then [Digits ('.' Digits?)? | '.' Digits], then whitespace — anything
   else ("1e3", "+5", "0x10", "inf", "1_000") is NaN.  Up to 15 integer
   digits fold exactly in an int; longer or fractional numerals go to
   [float_of_string], which the scan has restricted to this grammar. *)
let number_of_string s =
  let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false in
  let is_digit c = c >= '0' && c <= '9' in
  let lo = ref 0 and hi = ref (String.length s) in
  while !lo < !hi && is_space (String.unsafe_get s !lo) do incr lo done;
  while !hi > !lo && is_space (String.unsafe_get s (!hi - 1)) do decr hi done;
  let lo = !lo and hi = !hi in
  let neg = lo < hi && String.unsafe_get s lo = '-' in
  let rec digits k = if k < hi && is_digit (String.unsafe_get s k) then digits (k + 1) else k in
  let start = if neg then lo + 1 else lo in
  let int_end = digits start in
  let dot = int_end < hi && String.unsafe_get s int_end = '.' in
  let stop = if dot then digits (int_end + 1) else int_end in
  let n_int = int_end - start and n_frac = if dot then stop - int_end - 1 else 0 in
  if stop <> hi || n_int + n_frac = 0 then Float.nan
  else if n_frac = 0 && n_int <= 15 then begin
    let v = ref 0 in
    for k = start to int_end - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get s k) - 48)
    done;
    if neg then -.float_of_int !v else float_of_int !v
  end
  else float_of_string (String.sub s lo (hi - lo))

(* XPath 1.0 §4.4 round(): half rounds up, except that arguments in
   [-0.5, 0) return negative zero; NaN, ±∞ and ±0 pass through
   (is_integer covers all three pass-through cases but NaN) *)
let round_number f =
  if Float.is_nan f || Float.is_integer f then f
  else if f >= -0.5 && f < 0.0 then -0.0
  else Float.floor (f +. 0.5)

(** [string_value v] — the XPath [string()] conversion. *)
let string_value = function
  | Str s -> s
  | Num f -> string_of_number f
  | Bool b -> if b then "true" else "false"
  | Nodes [] -> ""
  | Nodes (n :: _) -> T.string_value n

(** [number_value v] — the XPath [number()] conversion. *)
let number_value = function
  | Num f -> f
  | Str s -> number_of_string s
  | Bool b -> if b then 1.0 else 0.0
  | Nodes _ as v -> number_of_string (string_value v)

(** [boolean_value v] — the XPath [boolean()] conversion. *)
let boolean_value = function
  | Bool b -> b
  | Num f -> f <> 0.0 && not (Float.is_nan f)
  | Str s -> String.length s > 0
  | Nodes ns -> ns <> []

let node_set = function
  | Nodes ns -> ns
  | v -> invalid_arg (Printf.sprintf "expected a node-set, got a %s" (type_name v))

(** XPath 1.0 §3.4 comparison semantics, handling node-set operands by
    existential quantification. *)
let compare_values op a b =
  let num_cmp op x y =
    match op with
    | `Eq -> x = y
    | `Neq -> x <> y
    | `Lt -> x < y
    | `Leq -> x <= y
    | `Gt -> x > y
    | `Geq -> x >= y
  in
  let str_cmp op (x : string) (y : string) =
    match op with
    | `Eq -> String.equal x y
    | `Neq -> not (String.equal x y)
    | `Lt | `Leq | `Gt | `Geq ->
        (* relational operators always compare as numbers *)
        num_cmp op (number_of_string x) (number_of_string y)
  in
  let flip = function
    | `Lt -> `Gt
    | `Leq -> `Geq
    | `Gt -> `Lt
    | `Geq -> `Leq
    | (`Eq | `Neq) as e -> e
  in
  (* one node-set operand vs a primitive; [op] oriented node-set-first *)
  let one_side op ns other =
    match other with
    | Num f -> List.exists (fun n -> num_cmp op (number_of_string (T.string_value n)) f) ns
    | Str s -> List.exists (fun n -> str_cmp op (T.string_value n) s) ns
    | Bool b -> num_cmp op (if ns <> [] then 1.0 else 0.0) (if b then 1.0 else 0.0)
    | Nodes _ -> assert false
  in
  match (a, b) with
  | Nodes ns1, Nodes ns2 ->
      List.exists
        (fun n1 ->
          let s1 = T.string_value n1 in
          List.exists (fun n2 -> str_cmp op s1 (T.string_value n2)) ns2)
        ns1
  | Nodes ns, other -> one_side op ns other
  | other, Nodes ns -> one_side (flip op) ns other
  | Bool _, _ | _, Bool _ ->
      num_cmp op (if boolean_value a then 1. else 0.) (if boolean_value b then 1. else 0.)
  | Num _, _ | _, Num _ -> num_cmp op (number_value a) (number_value b)
  | Str s1, Str s2 -> str_cmp op s1 s2
