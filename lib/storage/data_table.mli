(** The data table: nid → data value, disk resident.

    The paper's QTYPE3 processing tests candidate nodes "by looking up the
    data table which keeps all node identifiers (nid) and corresponding data
    values". Records are packed into pages sorted by nid, with an in-memory
    sparse directory (first nid of each page), so a probe costs one page read
    plus an in-page scan — charged as [table_pages] on the {!Cost.t}. A
    QTYPE3 batch ({!filter_matching}) reads and scans each touched page once. *)

type t

val build : Buffer_pool.t -> Repro_graph.Data_graph.t -> t
(** Store every node that has a data value. A value too long for one page
    is kept whole in a chain of overflow pages that its record points to;
    {!lookup}, {!filter_matching} and {!iter} read the chain, and each
    overflow page read is charged as [table_pages]. *)

val n_entries : t -> int

val n_pages : t -> int
(** Pages of records, overflow pages not counted. *)

val locate : t -> Repro_graph.Data_graph.nid -> int option
(** Index of the table page whose nid range may hold the node — the last
    page whose first nid is at most [nid] — or [None] below the first
    page. A probe touches exactly this page. *)

val lookup : ?cost:Cost.t -> t -> Repro_graph.Data_graph.nid -> string option

val filter_matching :
  ?cost:Cost.t -> t -> Repro_graph.Data_graph.nid array -> string -> Repro_graph.Data_graph.nid array
(** Keep the candidates whose value equals the given string, in input
    order; a repeated candidate is kept as often as it occurs. The
    candidates must be ascending ([Int_sorted], as [eval_q1] returns
    them). One merge pass: the candidates that fall on one table page are
    a consecutive run, so each touched page is fetched from the pool once
    and its records are walked once per call, alongside the run. Values
    are compared in place in the page buffer; nothing is copied out. Each
    touched page is charged once as [table_pages] — the per-query
    working-set cost model — plus each overflow page read to compare a
    spilled value of the wanted length.
    @raise Invalid_argument when the candidates are not ascending. *)

val iter : t -> (Repro_graph.Data_graph.nid -> string -> unit) -> unit
(** Iterate all (nid, value) records in nid order, bypassing the cache (used
    by index builders, e.g. to enumerate Index Fabric keys). *)
