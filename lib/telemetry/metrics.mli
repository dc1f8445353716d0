(** Metrics registry: named counters, gauges, and log-bucketed histograms.

    Handles returned by {!counter} / {!gauge} / {!histogram} are plain
    mutable records — updating one is a load and a store, with no lookup
    or allocation. Registries are per-instance so two indexes tuned in the
    same process never share counters. *)

type counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type gauge

val set : gauge -> float -> unit
val level : gauge -> float

module Histogram : sig
  (** Log-linear histogram over values in nanoseconds (seconds scaled by
      1e9): bucket 0 holds values below 1ns, and each power of two
      [[2^k, 2^(k+1))] above it is split into 4 equal-width buckets.
      Recording is O(1); quantiles are estimated by bucket walk and are
      within 12.5% of the true value. *)

  type t

  val n_buckets : int
  val create : unit -> t
  val record : t -> float -> unit
  val count : t -> int

  val sum : t -> float
  (** Compensated (Neumaier) running sum: exact up to the rounding residue
      of the compensation term itself, and — because {!merge} combines the
      compensated pairs with error-free transformations — identical no
      matter how shard histograms are associated when merging. *)

  val min_value : t -> float
  val max_value : t -> float
  val mean : t -> float

  val bucket_counts : t -> int array
  (** Copy of the per-bucket sample counts; sums to {!count}. *)

  val bucket_of : float -> int
  (** Bucket index a value records into. *)

  val merge : t -> t -> t
  (** Pure: returns a fresh histogram, arguments unchanged. *)

  val equal_counts : t -> t -> bool
  (** Equality over bucket counts, total count, and extrema. [sum] is
      excluded here (its internal compensated representation is not
      canonical) and compared bit-exactly by the merge properties via
      {!sum} instead. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [[0,1]] (clamped); [0.] when empty. A
      1-sample histogram reports that sample exactly for every [q]. *)

  val quantile_opt : t -> float -> float option
  (** [None] when the histogram is empty — for callers that must
      distinguish "no data" from "zero latency" (SLO windows, percentile
      tables). *)
end

type histogram = Histogram.t

type t
(** A registry instance. *)

val create : unit -> t

val counter : t -> string -> counter
(** Get or create. @raise Invalid_argument if [name] is registered as a
    different metric kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val register_source : t -> string -> (unit -> (string * float) list) -> unit
(** [register_source t prefix f] contributes [f ()] at snapshot time as
    gauges named [prefix ^ "." ^ key] — the bridge for hot counter structs
    (Io_stats, Cost) that must stay plain records. *)

val gc_source : unit -> (string * float) list
(** GC signals from [Gc.quick_stat]: minor/promoted/major words, minor and
    major collections, compactions, heap words. *)

val register_gc : t -> unit
(** [register_source t "gc" gc_source] — allocation regressions then show
    up in every snapshot of [t]. *)

type value = Count of int | Level of float | Dist of histogram

val snapshot : t -> (string * value) list
(** All metrics plus source contributions, sorted by name. *)

val pp : Format.formatter -> t -> unit
