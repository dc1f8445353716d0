(** Low-level character scanner shared by the XML parser.

    A cursor over an input string with line/column tracking, lookahead, and
    the lexical productions of XML that do not need grammar context: names,
    whitespace, quoted literals and entity/character references. *)

type t

exception Error of string * int * int
(** [Error (message, line, column)] — lexical error at a source position. *)

val of_string : string -> t
(** Scanner positioned at the start of the input. *)

val eof : t -> bool
val pos : t -> int * int
(** Current [(line, column)], 1-based. *)

val peek : t -> char option

val advance : t -> unit
val expect_char : t -> char -> unit
val expect_string : t -> string -> unit
(** Fail with {!Error} unless the input at the cursor is the given
    char/string; consumes it. *)

val looking_at : t -> string -> bool
(** True when the input at the cursor starts with the given string; does not
    consume. *)

val skip_whitespace : t -> unit
val skip_until : t -> string -> unit
(** Consume input up to and including the next occurrence of the marker
    string; {!Error} if the marker never occurs. *)

val name : t -> string
(** An XML Name ([a-zA-Z_:] then name characters); {!Error} on anything
    else. *)

val quoted : t -> decode:(string -> string) -> string
(** A single- or double-quoted literal, with [decode] applied to the raw
    contents (normally {!decode_references}). *)

val text_run : t -> string
(** Raw character data up to the next ['<'] or end of input. References are
    not decoded. *)

val decode_references : string -> string
(** Resolve the five predefined entities and decimal/hex character
    references. Raises [Invalid_argument] on a malformed or unknown
    reference. *)

val fail : t -> string -> 'a
(** Raise {!Error} at the current position. *)
