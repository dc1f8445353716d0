(* The schema vocabulary shared by every checked-in contract
   (schemas/*.json): a contract is not JSON Schema but a set of sections,
   each describing one record shape —

     required     field name -> expected JSON type name
     nullable     fields that may also be null (absent value)
     kinds_field  a string field whose value must be one of [kinds]

   Every contract carries its own mapping from sections to parts of the
   document it describes (its [document] and [sections] keys), read by
   [check_document]. *)

type shape = {
  required : (string * string) list;
  nullable : string list;
  kinds_field : string option;
  kinds : string list;
}

let strings = function
  | Some (Json.Arr items) -> List.filter_map Json.to_str items
  | _ -> []

let shape_of_json j =
  let required =
    match Json.member "required" j with
    | Some (Json.Obj fields) ->
      List.filter_map (fun (k, v) -> Option.map (fun t -> (k, t)) (Json.to_str v)) fields
    | _ -> []
  in
  { required;
    nullable = strings (Json.member "nullable" j);
    kinds_field = Option.bind (Json.member "kinds_field" j) Json.to_str;
    kinds = strings (Json.member "kinds" j) }

let check shape ~ctx j =
  let field_errors =
    List.filter_map
      (fun (field, expected) ->
        match Json.member field j with
        | None -> Some (Printf.sprintf "%s: missing %S" ctx field)
        | Some Json.Null when List.mem field shape.nullable -> None
        | Some v ->
          let actual = Json.type_name v in
          if actual = expected then None
          else
            Some (Printf.sprintf "%s: field %S is %s, expected %s" ctx field actual expected))
      shape.required
  in
  let kind_errors =
    match shape.kinds_field with
    | None -> []
    | Some field ->
      (match Option.bind (Json.member field j) Json.to_str with
       | Some v when not (List.mem v shape.kinds) ->
         [ Printf.sprintf "%s: %S = %S not in schema kinds" ctx field v ]
       | _ -> [])
  in
  field_errors @ kind_errors

let check_items shape ~ctx items =
  List.concat
    (List.mapi (fun i item -> check shape ~ctx:(Printf.sprintf "%s[%d]" ctx i) item) items)

(* The schema's [document] shape over the top level, then each field its
   [sections] map names against that section's shape: an object as one
   record, an array item by item. *)
let check_document schema json =
  let section name = Option.map shape_of_json (Json.member name schema) in
  match (section "document", Json.member "sections" schema) with
  | Some top, Some (Json.Obj sections) ->
    check top ~ctx:"document" json
    @ List.concat_map
        (fun (field, name) ->
          match (Option.bind (Json.to_str name) section, Json.member field json) with
          | None, _ -> [ Printf.sprintf "schema: no section for %S" field ]
          | Some shape, Some (Json.Arr items) -> check_items shape ~ctx:field items
          | Some shape, Some (Json.Obj _ as j) -> check shape ~ctx:field j
          | Some _, _ -> [] (* absent, null or mistyped: [document] reports it *))
        sections
  | _ -> [ "schema: missing \"document\" or \"sections\"" ]

let validate_file ~schema_path path =
  let load p = Result.map_error (fun e -> [ e ]) (Json.parse_file p) in
  Result.bind (load schema_path) (fun schema ->
      Result.bind (load path) (fun json ->
          match check_document schema json with [] -> Ok () | errors -> Error errors))
