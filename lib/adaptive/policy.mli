(** Cost-benefit adaptation policy: "index what pays", not just "index
    what's used".

    Support-only mining compares each path's raw window count against one
    threshold, so a path whose support sits at the boundary flaps in and
    out of the index on every refresh — rebuild I/O with zero query
    benefit — and a frequent-but-cheap path occupies index pages a rarely
    used but expensive path would repay better. This policy closes the
    loop from the measured signals instead:

    - {b support} — decayed count of queries touching the path;
    - {b cost} — per-path extent pages / extent edges / join edges from
      {!Repro_storage.Cost}, reduced to one page-equivalent scalar.

    Both accumulate per path in a window that each refresh folds into a
    decayed accumulator, so cooling paths fade geometrically. Wall-clock
    latency is not an input: deterministic decisions need deterministic
    inputs.

    Scoring: [score p = support p * (rel_cost p ** cost_weight)], where
    [rel_cost] is the path's mean per-query cost over the fixed
    [cost_scale] — [cost_weight = 0] degenerates to support-only mining.
    The scale is deliberately absolute rather than the live workload mean:
    once the expensive paths are indexed their queries become cheap, the
    mean collapses, and a mean-relative score would re-rate every
    remaining path as "expensive relative to what's left", growing the
    index without bound — the same self-referential feedback loop the
    support-based eviction rule avoids.

    Hysteresis: candidates must clear a band around the support threshold
    [base = min_support * decayed_queries], not the raw threshold:
    promotion needs both [support >= base * (1 + hysteresis)] and
    [score >= base * (1 + hysteresis)]; an indexed path is retained while
    [support >= base * (1 - hysteresis)]. Both transitions gate on
    support, so flipping state twice requires the decayed support to
    travel the whole band; under stationary traffic the decayed signals
    converge geometrically and support/base is a ratio over one shared
    decay horizon, so each path crosses each band edge at most once: no
    path changes state in two consecutive refreshes, and after
    convergence no path changes state at all.

    Eviction deliberately tests support rather than score: a promoted
    path's queries become exact hash-tree hits, so its measured cost — and
    any cost-weighted score — collapses on the refresh after promotion.
    Scoring retention would evict it, re-raising its cost: an oscillation
    driven by the policy's own effect. Support is invariant under
    indexing. Promotion is support-gated for the symmetric reason: a
    cooling path that just dropped below the retain edge still shows a
    large cost factor, and a score-only promote rule would re-admit it. *)

type config = {
  min_support : float;  (** support threshold as a fraction of queries *)
  decay : float;  (** per-refresh retention of accumulated signals, [0, 1) *)
  hysteresis : float;  (** half-width of the promote/retain band, [0, 1) *)
  cost_weight : float;  (** exponent on relative cost; 0 = support-only *)
  cost_scale : float;
      (** page-equivalents of per-query work at which a path's cost factor
          is neutral (rel_cost = 1) — "how much work must a query burn
          before indexing its path starts paying" *)
}

val default_config : config
(** minSup 0.005 (matching {!Self_tuning.create}), decay 0.6, hysteresis
    0.3, cost_weight 1.0, cost_scale 1.0. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument when [decay] or [hysteresis] is outside
    [[0, 1)] or [min_support] is not positive. *)

val config : t -> config

val unit_cost : extent_pages:int -> extent_edges:int -> join_edges:int -> float
(** One query's cost in page-equivalents, mirroring
    {!Repro_storage.Cost.weighted_total}'s weights: pages + streamed
    edge/join work at 500 per page. *)

val observe :
  t ->
  paths:Repro_pathexpr.Label_path.t list ->
  extent_pages:int ->
  extent_edges:int ->
  join_edges:int ->
  unit
(** Attribute one executed query to the paths it used ({!Repro_workload.
    Query_log.paths_of_query}) — the query's cost signals accrue to every
    contiguous subpath, exactly as mining counts support. *)

(** {1 Refresh planning}

    One refresh = {!plan} (rolls the decayed windows and scores every
    tracked path), then {!Repro_apex.Apex.refresh} with {!decide} and
    {!keep_paths} as the [ensure] list, then — once the refresh has
    actually landed — {!commit}. Committing only on success keeps the
    hysteresis comparing against the state the index really reached when
    a mid-refresh fault rolls the epoch back. *)

type plan

val plan : t -> plan
(** Roll the decayed windows and decide every candidate path. Once more
    than 16,384 paths are tracked, the roll drops those whose decayed
    support fell below 1e-6. The kept set is closed under contiguous
    subpaths (the invariant {!Repro_apex.Hash_tree.find_slots} depends
    on). *)

val keep_paths : plan -> Repro_pathexpr.Label_path.t list
(** The kept candidate paths — pass as [ensure] so paths retained across
    a window that never counted them still have hash-tree entries. *)

val decide :
  plan ->
  path:Repro_pathexpr.Label_path.t -> count:int -> is_new:bool -> bool
(** The [decide] callback for {!Repro_apex.Apex.refresh}: length-1 paths
    are always required; longer entries live iff the plan kept them. *)

val promotions : plan -> Repro_pathexpr.Label_path.t list
val evictions : plan -> Repro_pathexpr.Label_path.t list
(** State changes relative to the last committed plan, sorted. *)

val commit : t -> plan -> unit
(** Adopt the plan's kept set as the policy's view of the index. *)

(** {1 Introspection} *)

val score : t -> Repro_pathexpr.Label_path.t -> float
(** Current score from the decayed accumulators (0 when untracked). *)

val indexed_paths : t -> Repro_pathexpr.Label_path.t list
val observed_queries : t -> float
val tracked_paths : t -> int
val refreshes : t -> int
val total_promotions : t -> int
val total_evictions : t -> int

val last_changes : t -> int
(** Promotions + evictions in the most recently committed plan — 0 once
    the policy has converged on a stationary workload. *)

val state_json : t -> Repro_telemetry.Json.t
(** Live policy state for [Server.introspect]: config, the current
    hysteresis band edges ([support_base] / [promote_edge] /
    [retain_edge], recomputed as {!plan} would), and the cumulative
    adaptation counters. *)
