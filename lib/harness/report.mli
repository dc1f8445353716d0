(** Plain-text table rendering for experiment output. *)

val table : title:string -> header:string list -> string list list -> unit
(** Print an aligned table to stdout. *)

val section : string -> unit
(** Print a section banner. *)

val float0 : float -> string
