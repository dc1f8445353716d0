(** SLO monitor: per-objective latency targets evaluated over sliding
    windows of log2 histograms.

    Each objective (a target quantile plus a threshold in seconds) owns a
    ring of sub-window histograms. {!observe} records into the current
    sub-window; {!advance} — called by the single writer, once per drain
    or on a timer — evaluates every objective over the merged window,
    updates burn-rate counters, records a [Trace.Slo_breach] instant per
    breached objective, and rotates the ring. The effective window covers
    the last 6 advances.

    The monitor is also the per-query latency watchdog: {!observe} trips
    on a sample over the ceiling given to {!create}.

    Empty windows report [st_estimate = None] and never breach; 1-sample
    windows report that sample exactly. Burn rate is the error-budget
    convention: (fraction of window samples over threshold) / (1 - q). *)

type objective = {
  slo_name : string;
  slo_quantile : float;  (** target quantile in (0,1), e.g. 0.99 *)
  slo_threshold : float;  (** seconds *)
}

type t

val create : ?watchdog:float -> objective list -> t
(** Six sub-windows per objective. [watchdog] is the per-query latency ceiling in
    seconds; without it the watchdog is disarmed. @raise Invalid_argument
    on a quantile outside (0,1) or a non-positive threshold or ceiling. *)

val observe : t -> int -> generation:int -> float -> bool
(** [observe t i ~generation latency] records one sample (seconds) served
    by [generation] against objective [i]. Over the watchdog ceiling it
    counts a trip, records a [Trace.Watchdog_trip] (generation, latency
    ns) and returns [true]. No allocation. *)

type status = {
  st_name : string;
  st_quantile : float;
  st_threshold : float;
  st_samples : int;  (** samples in the merged window *)
  st_estimate : float option;  (** [None]: empty window, no verdict *)
  st_burn : float;  (** error-budget burn rate over the window *)
  st_breached : bool;
  st_breaches : int;  (** cumulative breached windows *)
  st_windows : int;  (** cumulative windows evaluated *)
}

val advance : t -> status list
(** Evaluate every objective over its merged window, count and record
    breaches, then rotate the ring (retiring the oldest sub-window). *)

val to_json : t -> Json.t
(** The introspection view: every objective evaluated without rotating or
    counting, plus the watchdog ceiling ([null] when disarmed) and its
    trip count. *)

val default_objectives : objective list
(** q1/q2/q3 at p99 <= 50ms, listed in query-type order — the objectives
    a server created with an incident path monitors. *)
