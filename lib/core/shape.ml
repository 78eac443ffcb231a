(* Cutting integer literals out of stylesheet text.  See shape.mli. *)

let max_digits = 15

let is_digit c = c >= '0' && c <= '9'

(* XPath name characters, plus the [.] of a decimal and the [-] of a
   negative number or a subtraction written without spaces *)
let is_adjacent_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | c -> Char.code c >= 0x80

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* does [sub] occur in [text] at [i]?  (loops, not closures: the scan
   runs on every ad-hoc request) *)
let occurs_at text i sub =
  let m = String.length sub in
  i + m <= String.length text
  &&
  let k = ref 0 in
  while !k < m && text.[i + !k] = sub.[!k] do
    incr k
  done;
  !k = m

exception Reserved

(* the attribute names whose values are XPath expressions worth cutting *)
let names = [ "select"; "test" ]

(* [Some (start, stop)] of the value of a [select]/[test] attribute whose
   name starts at [i], else [None] *)
let attribute_value text i =
  let n = String.length text in
  let rec skip j = if j < n && is_space text.[j] then skip (j + 1) else j in
  List.find_map
    (fun name ->
      if occurs_at text i name then
        let j = skip (i + String.length name) in
        if j < n && text.[j] = '=' then
          let j = skip (j + 1) in
          if j < n && (text.[j] = '"' || text.[j] = '\'') then
            Option.map (fun stop -> (j + 1, stop)) (String.index_from_opt text (j + 1) text.[j])
          else None
        else None
      else None)
    names

let cut text =
  let n = String.length text and prefix = Xdb_xquery.Sql_rewrite.param_prefix in
  (* a text that already names a reserved variable is never cut *)
  let check i = if text.[i] = prefix.[0] && occurs_at text i prefix then raise Reserved in
  let buf = Buffer.create (n + 16) and values = ref [] and count = ref 0 and last = ref 0 in
  (* the digit runs of [start, stop) outside string literals *)
  let cut_value start stop =
    let quote = ref None and i = ref start in
    while !i < stop do
      let c = text.[!i] in
      check !i;
      (match !quote with
      | Some q -> if c = q then quote := None
      | None when c = '"' || c = '\'' -> quote := Some c
      | None when is_digit c ->
          let j = ref !i in
          while !j < stop && is_digit text.[!j] do
            incr j
          done;
          let bare =
            (!i = start || not (is_adjacent_char text.[!i - 1]))
            && (!j = stop || not (is_adjacent_char text.[!j]))
          in
          if bare && !j - !i <= max_digits then begin
            Buffer.add_substring buf text !last (!i - !last);
            Buffer.add_char buf '$';
            Buffer.add_string buf (Xdb_xquery.Sql_rewrite.param_var !count);
            values := int_of_string (String.sub text !i (!j - !i)) :: !values;
            incr count;
            last := !j
          end;
          i := !j - 1
      | None -> ());
      incr i
    done
  in
  let i = ref 0 in
  match
    while !i < n do
      check !i;
      (match text.[!i] with
      | ('s' | 't') when !i > 0 && is_space text.[!i - 1] -> (
          match attribute_value text !i with
          | Some (start, stop) ->
              let rec amp k = k < stop && (text.[k] = '&' || amp (k + 1)) in
              if amp start then for k = start to stop - 1 do check k done
              else cut_value start stop;
              i := stop
          | None -> ())
      | _ -> ());
      incr i
    done
  with
  | exception Reserved -> None
  | () when !count = 0 -> None
  | () ->
      Buffer.add_substring buf text !last (n - !last);
      Some (Buffer.contents buf, Array.of_list (List.rev !values))
