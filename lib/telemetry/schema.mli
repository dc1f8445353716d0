(** The mini-contract vocabulary of the checked-in schemas
    ([schemas/*.json]): each section of a schema describes one record
    shape, and the contract's [document] and [sections] keys say which
    parts of a document each section checks. The trace, incident and
    lint-report contracts all use it. *)

type shape
(** One record contract: [required] fields with expected JSON type names,
    the subset of them listed as [nullable] (which may also be [null]), and
    an optional [kinds_field] whose string value must be one of [kinds]. *)

val shape_of_json : Json.t -> shape
(** Read one schema section; absent keys mean "no constraint". *)

val check : shape -> ctx:string -> Json.t -> string list
(** Conformance errors of one JSON value against [shape], each prefixed
    with [ctx]; [[]] = conforms. [null] is accepted only for fields the
    section lists as [nullable]. *)

val check_items : shape -> ctx:string -> Json.t list -> string list
(** {!check} over array items, with contexts [ctx[0]], [ctx[1]], .... *)

val check_document : Json.t -> Json.t -> string list
(** [check_document contract json]: the contract's [document] section
    checked over the top level of [json], and each field its [sections]
    map names checked against that section — an object as one record, an
    array item by item. [[]] = conforms. *)

val validate_file : schema_path:string -> string -> (unit, string list) result
(** Parse the contract and the document file, then {!check_document}. *)
