(* Minimal JSON: the one path every report in the repository is written
   and read through — telemetry exports, bench snapshots, the serve and
   drift reports — with string escaping on the way out and a strict parser
   on the way in. Numbers are floats; integers round-trip exactly up to
   2^53, which covers every counter. Result checksums span the full 63-bit
   int range, so reports carry them as hex strings, never as numbers. Not a
   general-purpose JSON library: no streaming, the whole value lives in
   memory. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.12g" f)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s ->
    Buffer.add_char buf '"';
    escape_to buf s;
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_to buf k;
        Buffer.add_string buf "\":";
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c (Printf.sprintf "expected %c, found %c" ch x)
  | None -> fail c (Printf.sprintf "expected %c, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' ->
      advance c;
      (match peek c with
       | None -> fail c "unterminated escape"
       | Some e ->
         advance c;
         (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
            let hex = String.sub c.text c.pos 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some v -> v
              | None -> fail c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* encode the scalar as UTF-8; surrogate pairs are passed
               through as two 3-byte sequences, fine for validation use *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | _ -> fail c "unknown escape"));
      go ()
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail c (Printf.sprintf "bad number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ()
        | Some '}' -> advance c
        | _ -> fail c "expected , or } in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements ()
        | Some ']' -> advance c
        | _ -> fail c "expected , or ] in array"
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character %c" ch)

let parse text =
  let c = { text; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length text then
      Error (Printf.sprintf "at byte %d: trailing garbage" c.pos)
    else Ok v
  | exception Parse_error m -> Error m

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | text -> Ok text
        | exception Sys_error e -> Error (path ^ ": " ^ e)
        | exception End_of_file -> Error (path ^ ": truncated read"))

let parse_file path =
  Result.bind (read_file path) (fun text ->
      Result.map_error (Printf.sprintf "%s: %s" path) (parse text))

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "boolean"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"
