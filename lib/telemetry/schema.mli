(** The mini-contract vocabulary of the checked-in schemas
    ([schemas/*.json]): each section of a schema describes one record
    shape. The trace ({!Export.Schema}), incident ({!validate_file}) and
    lint-report validators share it. *)

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

val validate_file : schema_path:string -> string -> (unit, string list) result
(** Check a whole JSON document against a contract that describes it: the
    contract's [document] section is checked over the top level, and its
    [sections] map sends each document field to the section its object,
    or each item of its array, must match. How
    [schemas/incident_schema.json] checks an incident file. *)
