type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* Far deeper than any document the repo writes; a body of 1 MiB of
   '[' fails at this depth instead of recursing a million frames. *)
let max_depth = 512

let parse text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if
      !pos + String.length word <= len
      && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* The four hex digits after "\u". *)
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match text.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v lsl 4) lor d;
      advance ()
    done;
    !v
  in
  (* A \u escape decodes to UTF-8; a high surrogate must be followed by
     an escaped low surrogate, and the pair names one code point. *)
  let unicode_escape buf =
    let hi = hex4 () in
    let code =
      if hi >= 0xD800 && hi <= 0xDBFF then begin
        if not (!pos + 2 <= len && text.[!pos] = '\\' && text.[!pos + 1] = 'u')
        then fail "lone high surrogate";
        pos := !pos + 2;
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
        0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
      else hi
    in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'u' ->
              advance ();
              unicode_escape buf;
              go ()
          | Some c ->
              Buffer.add_char buf
                (match c with
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | 'b' -> '\b'
                | 'f' -> '\012'
                | c -> c);
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek () with Some c when is_num_char c -> true | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some ('{' | '[') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path keys j =
  List.fold_left
    (fun acc key -> match acc with Some v -> member key v | None -> None)
    (Some j) keys

let num = function Num f -> Some f | _ -> None

let str = function Str s -> Some s | _ -> None

let bool = function Bool b -> Some b | _ -> None

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float fmt v =
  if Float.is_finite v then Printf.sprintf fmt v
  else if Float.is_nan v then "\"nan\""
  else if v > 0.0 then "\"inf\""
  else "\"-inf\""

let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else if Float.is_nan f then Buffer.add_string buf "null"
  else if f > 0.0 then Buffer.add_string buf "1e999"
  else Buffer.add_string buf "-1e999"

let to_string j =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num f -> add_float buf f
    | Str s -> Buffer.add_string buf (quote s)
    | Arr l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            emit v)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (quote k);
            Buffer.add_char buf ':';
            emit v)
          fields;
        Buffer.add_char buf '}'
  in
  emit j;
  Buffer.contents buf
