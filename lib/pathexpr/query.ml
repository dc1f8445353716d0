type t =
  | Qtype1 of string list
  | Qtype2 of string * string
  | Qtype3 of string list * string

type compiled =
  | C1 of Label_path.t
  | C2 of Repro_graph.Label.t * Repro_graph.Label.t
  | C3 of Label_path.t * string

(* Concrete syntax:
     query  ::= '//' steps pred?
     steps  ::= step (sep step)*
     sep    ::= '/' | '//' | '=>'
     step   ::= '@'? name
     pred   ::= '[' 'text()' '=' value ']'
     value  ::= '"' (char | '\"' | '\\')* '"' | [^\]]*
   Inside a quoted value a backslash escapes a following '"' or '\';
   before any other character it is literal. A '//' separator is only
   legal in the two-label QTYPE2 form. A '=>' separator is surface syntax:
   '@a=>b' and '@a/b' denote the same label path. *)

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | ':' | '.' -> true
  | _ -> false

let parse input =
  let n = String.length input in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let pos = ref 0 in
  let looking_at s =
    let l = String.length s in
    !pos + l <= n && String.equal (String.sub input !pos l) s
  in
  let eat s = pos := !pos + String.length s in
  let read_step () =
    let start = !pos in
    if looking_at "@" then eat "@";
    while !pos < n && is_name_char input.[!pos] do
      incr pos
    done;
    if !pos = start || (input.[start] = '@' && !pos = start + 1) then None
    else Some (String.sub input start (!pos - start))
  in
  if not (looking_at "//") then err "query must start with //"
  else begin
    eat "//";
    let rec read_steps acc saw_descendant =
      match read_step () with
      | None -> err "expected a label at position %d" !pos
      | Some step ->
        let acc = step :: acc in
        if looking_at "//" then begin
          eat "//";
          read_steps acc true
        end
        else if looking_at "=>" then begin
          eat "=>";
          if String.length step = 0 || step.[0] <> '@' then
            err "dereference => must follow an attribute step (@name)"
          else read_steps acc saw_descendant
        end
        else if looking_at "/" then begin
          eat "/";
          read_steps acc saw_descendant
        end
        else Ok (List.rev acc, saw_descendant)
    in
    match read_steps [] false with
    | Error _ as e -> e
    | Ok (steps, saw_descendant) ->
      let value =
        if looking_at "[" then begin
          eat "[";
          if not (looking_at "text()") then err "expected text() in predicate"
          else begin
            eat "text()";
            if not (looking_at "=") then err "expected = in predicate"
            else begin
              eat "=";
              let quoted = looking_at "\"" in
              if quoted then eat "\"";
              let v = Buffer.create 16 in
              let stop_char = if quoted then '"' else ']' in
              while !pos < n && input.[!pos] <> stop_char do
                if quoted && input.[!pos] = '\\' && !pos + 1 < n
                   && (input.[!pos + 1] = '"' || input.[!pos + 1] = '\\')
                then incr pos;
                Buffer.add_char v input.[!pos];
                incr pos
              done;
              let v = Buffer.contents v in
              if quoted then
                if looking_at "\"" then eat "\"" else pos := n + 1;
              if looking_at "]" then begin
                eat "]";
                Ok (Some v)
              end
              else err "unterminated predicate"
            end
          end
        end
        else Ok None
      in
      (match value with
       | Error m -> Error m
       | Ok value ->
         if !pos <> n then err "trailing characters at position %d" !pos
         else
           match steps, saw_descendant, value with
           | [ a; b ], true, None -> Ok (Qtype2 (a, b))
           | _, true, _ -> err "// separator is only supported in the //a//b form"
           | steps, false, None -> Ok (Qtype1 steps)
           | steps, false, Some v -> Ok (Qtype3 (steps, v)))
  end

let steps_to_string steps =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "//";
  let rec go = function
    | [] -> ()
    | [ last ] -> Buffer.add_string buf last
    | step :: next :: rest ->
      Buffer.add_string buf step;
      if String.length step > 0 && step.[0] = '@' then Buffer.add_string buf "=>"
      else Buffer.add_char buf '/';
      go (next :: rest)
  in
  go steps;
  Buffer.contents buf

(* a value as the body of a quoted predicate: '"' and '\' escaped, any
   other text unchanged *)
let quote v =
  let special c = Char.equal c '"' || Char.equal c '\\' in
  if not (String.exists special v) then v
  else begin
    let buf = Buffer.create (String.length v + 8) in
    String.iter
      (fun c ->
        if special c then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      v;
    Buffer.contents buf
  end

let to_string = function
  | Qtype1 steps -> steps_to_string steps
  | Qtype2 (a, b) -> Printf.sprintf "//%s//%s" a b
  | Qtype3 (steps, v) -> Printf.sprintf "%s[text()=\"%s\"]" (steps_to_string steps) (quote v)

let compile tbl q =
  let resolve names =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | name :: rest ->
        (match Repro_graph.Label.find tbl name with
         | Some l -> go (l :: acc) rest
         | None -> None)
    in
    go [] names
  in
  match q with
  | Qtype1 steps ->
    (match resolve steps with Some p -> Some (C1 p) | None -> None)
  | Qtype2 (a, b) ->
    (match Repro_graph.Label.find tbl a, Repro_graph.Label.find tbl b with
     | Some la, Some lb -> Some (C2 (la, lb))
     | _ -> None)
  | Qtype3 (steps, v) ->
    (match resolve steps with Some p -> Some (C3 (p, v)) | None -> None)

let equal a b =
  match a, b with
  | Qtype1 x, Qtype1 y -> List.equal String.equal x y
  | Qtype2 (a1, b1), Qtype2 (a2, b2) -> String.equal a1 a2 && String.equal b1 b2
  | Qtype3 (x, v1), Qtype3 (y, v2) -> List.equal String.equal x y && String.equal v1 v2
  | (Qtype1 _ | Qtype2 _ | Qtype3 _), _ -> false

let pp ppf q = Format.pp_print_string ppf (to_string q)
