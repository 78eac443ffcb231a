(* Cutting integer literals out of stylesheet text.  See shape.mli. *)

let max_digits = 15

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

let prefix = Xdb_xquery.Sql_rewrite.param_prefix

(* a text that already names a reserved variable is never cut *)
let check_reserved text i =
  if String.unsafe_get text i = String.unsafe_get prefix 0 && occurs_at text i prefix then
    raise Reserved

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

type state = {
  text : string;
  buf : Buffer.t;  (** the shape up to [last] *)
  mutable last : int;  (** the text before it is in [buf] *)
  mutable values : int list;  (** the cut literals, last first *)
  mutable count : int;
}

(* cut the digit runs of the value [start, stop) outside XPath string
   literals, unless the value holds a [&]: then it stays whole *)
let cut_value st start stop =
  let text = st.text in
  let len = Buffer.length st.buf and values = st.values and count = st.count and last = st.last in
  let quote = ref ' ' and amp = ref false and i = ref start in
  while !i < stop do
    let c = String.unsafe_get text !i in
    check_reserved text !i;
    if c = '&' then amp := true;
    if !quote <> ' ' then (if c = !quote then quote := ' ')
    else if c = '"' || c = '\'' then quote := c
    else if is_digit c then begin
      let j = ref !i in
      while !j < stop && is_digit (String.unsafe_get text !j) do
        incr j
      done;
      let bare =
        (!i = start || not (is_adjacent_char text.[!i - 1]))
        && (!j = stop || not (is_adjacent_char text.[!j]))
      in
      if bare && !j - !i <= max_digits then begin
        Buffer.add_substring st.buf text st.last (!i - st.last);
        Buffer.add_char st.buf '$';
        Buffer.add_string st.buf (Xdb_xquery.Sql_rewrite.param_var st.count);
        st.values <- int_of_string (String.sub text !i (!j - !i)) :: st.values;
        st.count <- st.count + 1;
        st.last <- !j
      end;
      i := !j - 1
    end;
    incr i
  done;
  if !amp then begin
    Buffer.truncate st.buf len;
    st.values <- values;
    st.count <- count;
    st.last <- last
  end

(* one pass: the reserved prefix is looked for where its first character
   occurs, an attribute name where an [s] or [t] follows a space *)
let rec scan st i =
  let text = st.text in
  if i < String.length text then
    match String.unsafe_get text i with
    | ('s' | 't') when i > 0 && is_space (String.unsafe_get text (i - 1)) ->
        let start = match name_end text i with -1 -> -1 | e -> value_start text e in
        if start < 0 then scan st (i + 1)
        else begin
          match String.index_from_opt text start text.[start - 1] with
          | Some stop ->
              cut_value st start stop;
              scan st (stop + 1)
          | None -> scan st (i + 1)
        end
    | _ ->
        check_reserved text i;
        scan st (i + 1)

let cut text =
  let n = String.length text in
  let st = { text; buf = Buffer.create (n + 16); last = 0; values = []; count = 0 } in
  match scan st 0 with
  | exception Reserved -> None
  | () when st.count = 0 -> None
  | () ->
      Buffer.add_substring st.buf text st.last (n - st.last);
      Some (Buffer.contents st.buf, Array.of_list (List.rev st.values))
