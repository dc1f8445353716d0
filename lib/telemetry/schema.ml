(* The schema vocabulary shared by every checked-in contract
   (schemas/*.json): a contract is not JSON Schema but a set of sections,
   each describing one record shape —

     required     field name -> expected JSON type name
     nullable     fields that may also be null (absent value)
     kinds_field  a string field whose value must be one of [kinds]

   The trace, incident and lint-report validators differ only in which
   section applies to which part of their document; that mapping stays
   with each of them. *)

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
