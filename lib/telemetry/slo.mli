(** SLO monitor: per-objective latency targets evaluated over sliding
    windows of log2 histograms.

    Each objective (a target quantile plus a threshold in seconds) owns a
    ring of sub-window histograms. {!observe} records into the current
    sub-window; {!advance} — called by the single writer, once per drain
    or on a timer — evaluates every objective over the merged window,
    updates burn-rate counters, records a [Trace.Slo_breach] instant per
    breached objective, and rotates the ring. The effective window covers
    the last [subwindows] advances.

    Empty windows report [st_estimate = None] and never breach; 1-sample
    windows report that sample exactly. Burn rate is the error-budget
    convention: (fraction of window samples over threshold) / (1 - q). *)

type objective = {
  slo_name : string;
  slo_quantile : float;  (** target quantile in (0,1), e.g. 0.99 *)
  slo_threshold : float;  (** seconds *)
}

type t

val create : ?subwindows:int -> objective list -> t
(** Default 6 sub-windows. @raise Invalid_argument on a quantile outside
    (0,1) or a non-positive threshold. *)

val index : t -> string -> int option
(** Objective position by name, for the hot [observe] side. *)

val observe : t -> int -> float -> unit
(** [observe t i latency] records one sample (seconds) against objective
    [i]. One histogram store; no allocation. *)

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

val current : t -> status list
(** Evaluate without rotating or counting — the introspection view. *)

val breach_total : t -> int
(** Total breached windows across all objectives. *)

val breached : t -> bool
(** Did the most recent {!advance} breach any objective? *)

val to_json : t -> Json.t

val default_objectives : objective list
(** q1/q2/q3 at p99 <= 50ms, listed in query-type order — the objectives
    a server created with an incident path monitors. *)
