(** The paper's experiments (Section 6) plus our ablations.

    Each function prepares the required environments and indexes, runs the
    query batches, prints a paper-style table, and returns the measured
    rows so tests and EXPERIMENTS.md generation can consume them.

    A {!context} caches datasets, query sets, and built indexes across
    experiments so [run_all] does not rebuild Ged03 five times. *)

type config = {
  scale : float;  (** dataset node-target factor (1.0 = Table 1 sizes) *)
  datasets : Repro_datagen.Dataset.spec list;
  n_q1 : int;
  n_q2 : int;
  n_q3 : int;
  min_sups : float list;  (** Table 2 / Figure 13 sweep *)
  chosen_min_sup : float;  (** Figures 14–15 use one value (paper: 0.005) *)
  verify : bool;  (** cross-check evaluators against the naive traversal *)
}

val default : config
(** Full scale, all nine datasets, paper query counts,
    minSup ∈ \{0.002, 0.005, 0.01, 0.03, 0.05\}, 0.005 chosen, verify on. *)

val quick : config
(** One dataset per family at 1/10 scale with reduced query counts — used
    by the default [bench] invocation and the test suite. *)

type context

val create_context : config -> context

(** {1 Experiments} *)

type index_size = { index : string; nodes : int; edges : int }

val table1 : context -> (string * Repro_graph.Graph_stats.t) list
(** Dataset characteristics (paper Table 1). *)

val workload_characteristics :
  context -> (string * Repro_workload.Workload_stats.t) list
(** Properties of the generated QTYPE1 sets (mean length, dereference and
    root-anchored fractions — the paper reports ~25% simple path
    expressions). *)

val table2 : context -> (string * index_size list) list
(** Index sizes: strong DataGuide, APEX0, APEX per minSup (paper
    Table 2). *)

type series_point = {
  engine : string;  (** e.g. "SDG", "APEX0", "APEX(0.005)" *)
  weighted_cost : float;
  wall_seconds : float;
  cost : Repro_storage.Cost.t;
}

val fig13 : context -> (string * series_point list) list
(** Total QTYPE1 evaluation cost per dataset: SDG, APEX0, and APEX across
    the minSup sweep (paper Figure 13). *)

val fig14 : context -> (string * series_point list) list
(** Total QTYPE2 cost: SDG vs APEX0 vs APEX(chosen) (paper Figure 14),
    each APEX index under both plans — the paper's rewrite search
    (["APEX0 rewrite"]) and the tree-ancestor plan (["APEX0 tree"]). *)

val fig15 : context -> (string * series_point list) list
(** Total QTYPE3 cost: Index Fabric vs SDG vs APEX(chosen) (paper
    Figure 15). *)

val ablation : context -> unit
(** Our additions: naive vs apriori mining agreement and timing;
    incremental refresh vs fresh rebuild timing; the 1-index as a fourth
    engine on QTYPE1; buffer-pool-size sensitivity for APEX QTYPE1; the
    QTYPE3 validation backend; raw vs [`Block] extent pages and cost. *)

val run_all : config -> unit
(** All of the above, printing every table. *)

val write_json : string -> Repro_telemetry.Json.t -> unit
(** Write a report to a file as one line of JSON and say so on stdout. *)

val json_bench : config -> out:string -> unit
(** End-to-end benchmark snapshot written as JSON: per dataset, APEX build
    time and size, then Q1/Q2/Q3 batch latency, weighted cost, result-set
    checksums, and extent-cache hit rates for APEX([chosen_min_sup]).
    Result sets are verified against the naive evaluator first (unless
    [verify] is off), so the timings always describe a correct engine.
    Successive snapshots with identical config must report identical
    checksums and counters: {!bench_diff} checks them against the
    committed trajectory. *)

val bench_diff :
  trajectory:Repro_telemetry.Json.t -> Repro_telemetry.Json.t -> (string, string list) result
(** Check a fresh report against the committed trajectory
    ([BENCH_TRAJECTORY.json]: each experiment name maps to a list of
    entries, oldest first, each a report's config and deterministic fields
    plus ["pr"]). The report's ["experiment"] field picks the list; every
    leaf of its newest entry except ["pr"] must be present in the report
    at the same path with an equal value, arrays compared by index and
    length. Fields the report adds (timings, gc) are ignored. [Ok] is a
    one-line summary; [Error] names each differing path, or the missing
    experiment. *)

val updates : config -> out:string option -> unit
(** The update-maintenance experiment ([bench updates]): per dataset and
    per op-batch size (1, 4, 16, 64), build APEX([chosen_min_sup]) in a
    fresh store, apply one generated batch
    ({!Repro_workload.Update_workload}) through the incremental maintainer
    ({!Repro_update.Update.apply}), and count the pages written after the
    baseline flush — against the page writes of re-extracting and
    re-materializing the whole index over the mutated graph. Maintained
    I/O must scale with the delta, rebuild I/O with the index. A mixed
    query battery runs through both engines; their result checksums must
    be bit-identical (and, unless [verify] is off, match the naive
    evaluator). Prints the table, and writes the JSON report to [out] when
    one is given. *)

val fault_smoke : config -> unit
(** Run the first dataset's QTYPE1 batch twice — once clean, once against a
    pager whose reads randomly flip bits and truncate ({!Repro_storage.Fault}
    transient kinds) — and fail unless the two result checksums agree. The
    printed table shows disk reads, CRC-triggered retries, and injected
    faults for the degraded run. *)
