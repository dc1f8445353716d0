(** XML path queries — the three query classes of the paper's evaluation.

    - QTYPE1: [//l_i/l_{i+1}/.../l_n], possibly with dereference steps
      ([l => m], which in the graph encoding of Section 3 is simply the
      label [@l] followed by [m]);
    - QTYPE2: [//l_i//l_j], a partial-matching pair needing query
      pruning/rewriting on the index;
    - QTYPE3: [//l_i/.../l_n\[text()=value\]], a QTYPE1 path with a value
      predicate checked against the data table.

    Queries are built over label {e strings} so they can be parsed and
    printed independently of a data graph; {!compile} resolves them against
    a graph's label table (a query naming an unknown label matches
    nothing). *)

type t =
  | Qtype1 of string list
  | Qtype2 of string * string
  | Qtype3 of string list * string

type compiled =
  | C1 of Label_path.t
  | C2 of Repro_graph.Label.t * Repro_graph.Label.t
  | C3 of Label_path.t * string

val parse : string -> (t, string) result
(** Parse the XQuery-style concrete syntax used in Section 6.1:
    [//a/b/c], [//a/@m=>c/d], [//a//b], [//a/b\[text()="v"\]] (quotes
    around the value optional; inside them a backslash escapes a following
    double quote or backslash). Never raises: malformed input is an
    [Error]. *)

val to_string : t -> string
(** Inverse of {!parse}; attribute-step/label pairs print with [=>], and a
    QTYPE3 value prints quoted, its double quotes and backslashes escaped,
    so [parse (to_string q)] is [Ok q] for every value. *)

val compile : Repro_graph.Label.table -> t -> compiled option
(** [None] when a label of the query does not occur in the data at all. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
