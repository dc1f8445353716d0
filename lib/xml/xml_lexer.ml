type t = {
  input : string;
  mutable off : int;
  mutable line : int;
  mutable col : int;
}

exception Error of string * int * int

let of_string input = { input; off = 0; line = 1; col = 1 }

let eof s = s.off >= String.length s.input
let pos s = (s.line, s.col)

let fail s msg = raise (Error (msg, s.line, s.col))

let peek s = if eof s then None else Some s.input.[s.off]

let advance s =
  match peek s with
  | None -> ()
  | Some '\n' ->
    s.off <- s.off + 1;
    s.line <- s.line + 1;
    s.col <- 1
  | Some _ ->
    s.off <- s.off + 1;
    s.col <- s.col + 1

let expect_char s c =
  match peek s with
  | Some c' when Char.equal c c' -> advance s
  | Some c' -> fail s (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail s (Printf.sprintf "expected %C, found end of input" c)

let looking_at s prefix =
  let n = String.length prefix in
  s.off + n <= String.length s.input
  && String.equal (String.sub s.input s.off n) prefix

let expect_string s prefix =
  if looking_at s prefix then String.iter (fun _ -> advance s) prefix
  else fail s (Printf.sprintf "expected %S" prefix)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_whitespace s =
  let rec go () =
    match peek s with
    | Some c when is_space c ->
      advance s;
      go ()
    | Some _ | None -> ()
  in
  go ()

let skip_until s marker =
  let rec go () =
    if eof s then fail s (Printf.sprintf "unterminated construct: %S not found" marker)
    else if looking_at s marker then expect_string s marker
    else begin
      advance s;
      go ()
    end
  in
  go ()

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '-' | '.' -> true
  | _ -> false

let name s =
  match peek s with
  | Some c when is_name_start c ->
    let start = s.off in
    advance s;
    let rec go () =
      match peek s with
      | Some c when is_name_char c ->
        advance s;
        go ()
      | Some _ | None -> ()
    in
    go ();
    String.sub s.input start (s.off - start)
  | Some c -> fail s (Printf.sprintf "expected a name, found %C" c)
  | None -> fail s "expected a name, found end of input"

let decode_references raw =
  let buf = Buffer.create (String.length raw) in
  let n = String.length raw in
  let rec go i =
    if i >= n then ()
    else if Char.equal raw.[i] '&' then begin
      let stop =
        match String.index_from_opt raw i ';' with
        | Some j -> j
        | None -> invalid_arg "unterminated entity reference"
      in
      let entity = String.sub raw (i + 1) (stop - i - 1) in
      (match entity with
       | "amp" -> Buffer.add_char buf '&'
       | "lt" -> Buffer.add_char buf '<'
       | "gt" -> Buffer.add_char buf '>'
       | "apos" -> Buffer.add_char buf '\''
       | "quot" -> Buffer.add_char buf '"'
       | _ ->
         let code =
           if String.length entity > 2 && entity.[0] = '#' && (entity.[1] = 'x' || entity.[1] = 'X')
           then int_of_string_opt ("0x" ^ String.sub entity 2 (String.length entity - 2))
           else if String.length entity > 1 && entity.[0] = '#'
           then int_of_string_opt (String.sub entity 1 (String.length entity - 1))
           else None
         in
         match code with
         | Some c when c >= 0 && c < 0x80 -> Buffer.add_char buf (Char.chr c)
         | Some c when c < 0x110000 ->
           (* encode as UTF-8 *)
           if c < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
           end
           else if c < 0x10000 then begin
             Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xF0 lor (c lsr 18)));
             Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 12) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
           end
         | _ -> invalid_arg (Printf.sprintf "unknown entity reference: &%s;" entity));
      go (stop + 1)
    end
    else begin
      Buffer.add_char buf raw.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let quoted s ~decode =
  let quote =
    match peek s with
    | Some (('"' | '\'') as q) ->
      advance s;
      q
    | Some c -> fail s (Printf.sprintf "expected a quoted literal, found %C" c)
    | None -> fail s "expected a quoted literal, found end of input"
  in
  let start = s.off in
  let rec go () =
    match peek s with
    | Some c when Char.equal c quote ->
      let raw = String.sub s.input start (s.off - start) in
      advance s;
      raw
    | Some _ ->
      advance s;
      go ()
    | None -> fail s "unterminated quoted literal"
  in
  let raw = go () in
  try decode raw with Invalid_argument msg -> fail s msg

let text_run s =
  let start = s.off in
  let rec go () =
    match peek s with
    | Some '<' | None -> String.sub s.input start (s.off - start)
    | Some _ ->
      advance s;
      go ()
  in
  go ()
