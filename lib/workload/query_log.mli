(** The query workload log.

    Section 4 assumes "a database system keeps the set (= workload) of
    queries (= label paths)"; this is that component: a bounded ring of the
    most recent query paths, convertible to miner input. Bounding the log
    gives the workload a sliding window, so old interests age out of the
    index on the next refresh. *)

type t

val create : capacity:int -> t
(** Keep at most [capacity] most-recent entries (older ones are
    overwritten). @raise Invalid_argument when capacity is not positive. *)

val record : t -> Repro_pathexpr.Label_path.t -> unit
(** Log one executed query's label path. *)

val paths_of_query :
  ?q2_paths:Repro_pathexpr.Label_path.t list ->
  Repro_graph.Label.table -> Repro_pathexpr.Query.t ->
  Repro_pathexpr.Label_path.t list
(** The label paths one executed query contributes to the workload — at
    most one entry, so a query contributes support exactly once. QTYPE1
    paths as-is, QTYPE3 paths without their value predicate. For QTYPE2
    the single most informative matched rewriting (the longest the
    evaluator reported in [q2_paths], ties broken by path order; mining
    counts contiguous subpaths, so nested shorter rewritings still
    accrue); without evaluator feedback, the minimal [a.b] suffix.
    Unknown-label queries contribute no path. *)

val length : t -> int
(** Entries currently held (≤ capacity). *)

val total_recorded : t -> int
(** Entries ever recorded, including overwritten ones. *)

val to_workload : t -> Repro_pathexpr.Label_path.t list
(** The current window, oldest first. *)

val clear : t -> unit
