(* Cutting integer literals out of stylesheet text.  See shape.mli. *)

let max_digits = 15

let prefix = Xdb_xquery.Sql_rewrite.param_prefix

let is_digit c = c >= '0' && c <= '9'

(* XPath name characters, plus the [.] of a decimal and the [-] of a
   negative number or a subtraction written without spaces *)
let is_adjacent_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | c -> Char.code c >= 0x80

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* does [sub] occur in [text] at [i]? *)
let occurs_at text i sub =
  let m = String.length sub in
  i + m <= String.length text
  &&
  let k = ref 0 in
  while !k < m && String.unsafe_get text (i + !k) = String.unsafe_get sub !k do
    incr k
  done;
  !k = m

exception Reserved

(* a text that already names a reserved variable is never cut *)
let check_reserved text i =
  if String.unsafe_get text i = String.unsafe_get prefix 0 && occurs_at text i prefix then
    raise Reserved

(* the bytes the scan stops at: a space, after which an attribute name
   may begin, and the [-] inside the reserved prefix; every other byte is
   passed over by one table load, four bytes a step *)
let dash = String.index prefix '-'

let stops =
  let b = Bytes.make 256 '\000' in
  List.iter (fun c -> Bytes.set b (Char.code c) '\001') [ ' '; '\t'; '\n'; '\r'; '-' ];
  Bytes.unsafe_to_string b

let is_stop text i = String.unsafe_get stops (Char.code (String.unsafe_get text i)) <> '\000'

let rec next_stop text i n =
  if i + 4 <= n then
    if is_stop text i then i
    else if is_stop text (i + 1) then i + 1
    else if is_stop text (i + 2) then i + 2
    else if is_stop text (i + 3) then i + 3
    else next_stop text (i + 4) n
  else if i < n && not (is_stop text i) then next_stop text (i + 1) n
  else i

let rec skip_spaces text j =
  if j < String.length text && is_space (String.unsafe_get text j) then skip_spaces text (j + 1)
  else j

(* the first character of the quoted value of an attribute whose name
   ends at [j] ([name = "…"], spaces allowed around [=]); -1 if none *)
let value_start text j =
  let n = String.length text in
  let j = skip_spaces text j in
  if j < n && text.[j] = '=' then
    let j = skip_spaces text (j + 1) in
    if j < n && (text.[j] = '"' || text.[j] = '\'') then j + 1 else -1
  else -1

(* the end of the [select]/[test] attribute name at [i], or -1 *)
let name_end text i =
  match String.unsafe_get text i with
  | 's' when occurs_at text i "select" -> i + 6
  | 't' when occurs_at text i "test" -> i + 4
  | _ -> -1

(* a literal slot: the digit run [at, stop) of the text, and its value *)
type slot = { at : int; stop : int; value : int }

(* the slots of the value [start, stop), newest first onto [slots]: its
   bare digit runs outside XPath string literals, none when the value
   holds a [&] *)
let cut_value text start stop slots =
  let rec go i quote amp acc =
    if i >= stop then if amp then slots else acc
    else
      let c = String.unsafe_get text i in
      check_reserved text i;
      let amp = amp || c = '&' in
      if quote <> ' ' then go (i + 1) (if c = quote then ' ' else quote) amp acc
      else if c = '"' || c = '\'' then go (i + 1) c amp acc
      else if is_digit c then begin
        let j = ref i and v = ref 0 in
        while !j < stop && is_digit (String.unsafe_get text !j) do
          if !j - i < max_digits then v := (10 * !v) + Char.code (String.unsafe_get text !j) - 48;
          incr j
        done;
        let bare =
          (i = start || not (is_adjacent_char text.[i - 1]))
          && (!j = stop || not (is_adjacent_char text.[!j]))
        in
        go !j quote amp
          (if bare && !j - i <= max_digits then { at = i; stop = !j; value = !v } :: acc else acc)
      end
      else go (i + 1) quote amp acc
  in
  go start ' ' false slots

(* one pass over [text], newest slot first: from stop byte to stop
   byte, an [s]/[t] after a space tried as an attribute name.  The
   prefix holds no quote, so an occurrence of it lies wholly inside a
   value, where [cut_value] looks at every byte, or wholly outside, where
   its [-] is a stop *)
let rec scan text n i slots =
  let i = next_stop text i n in
  if i >= n then slots
  else if String.unsafe_get text i = '-' then
    if i >= dash && occurs_at text (i - dash) prefix then raise Reserved
    else scan text n (i + 1) slots
  else
    let a = i + 1 in
    let start = if a < n then match name_end text a with -1 -> -1 | e -> value_start text e else -1 in
    match if start < 0 then None else String.index_from_opt text start text.[start - 1] with
    | Some stop -> scan text n (stop + 1) (cut_value text start stop slots)
    | None -> scan text n a slots

let rec digits k = if k < 10 then 1 else 1 + digits (k / 10)

(* the shape and the values of [slots], newest first: written back to
   front, each unchanged run blitted and slot [k] written as [$], the
   prefix and [k] *)
let shape text slots =
  let n = String.length text and p = String.length prefix in
  let count = List.length slots in
  let values = Array.make count 0 in
  let len = ref (List.fold_left (fun len s -> len + 1 + p - (s.stop - s.at)) n slots) in
  for k = 0 to count - 1 do
    len := !len + digits k
  done;
  let len = !len in
  let b = Bytes.create len in
  let rec write src dst k = function
    | [] -> Bytes.blit_string text 0 b 0 src
    | s :: older ->
        values.(k) <- s.value;
        let run = src - s.stop in
        let dst = dst - run in
        Bytes.blit_string text s.stop b dst run;
        let dst = dst - digits k in
        let q = ref k in
        for d = dst + digits k - 1 downto dst do
          Bytes.unsafe_set b d (Char.unsafe_chr (48 + (!q mod 10)));
          q := !q / 10
        done;
        Bytes.blit_string prefix 0 b (dst - p) p;
        Bytes.unsafe_set b (dst - p - 1) '$';
        write s.at (dst - p - 1) (k - 1) older
  in
  write n len (count - 1) slots;
  (Bytes.unsafe_to_string b, values)

let cut text =
  match scan text (String.length text) 0 [] with
  | exception Reserved -> None
  | [] -> None
  | slots -> Some (shape text slots)
