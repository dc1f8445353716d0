(** The concurrent query server: epoch-snapshot isolation over a
    self-tuning APEX.

    One writer domain owns a {!Repro_adaptive.Self_tuning} instance and
    the epoch registry; reader domains evaluate queries against published
    {!Epoch} deep copies, pinned through the registry. A publish is one
    atomic store, so refreshes and update batches land with zero reader
    downtime: queries in flight finish on the generation they pinned, new
    queries see the new one, and superseded epochs are freed once their
    pin counts drain.

    Thread contract: {!query}/{!query_pinned} may be called from any
    domain, concurrently; {!apply}, {!force_refresh}, {!drain_feedback},
    {!rollback} and {!retire} are writer-side (they serialize on an
    internal mutex, so a second writer blocks rather than corrupts, but
    the intended topology is a single writer). *)

type t

val create :
  ?log_capacity:int ->
  ?min_support:float ->
  ?refresh_every:int ->
  ?pool:Repro_storage.Buffer_pool.t ->
  ?snapshot:Repro_apex.Apex_persist.Snapshot.t ->
  ?policy:Repro_adaptive.Policy.t ->
  ?incident_path:string ->
  Repro_graph.Data_graph.t ->
  t
(** Build APEX0 over the graph (through {!Repro_adaptive.Self_tuning.create},
    with the same durability semantics for [pool]/[snapshot]) and publish
    it as generation 1. The reader→writer query feedback buffer holds
    4096 queries (overflow drops, counted). With
    [policy], refreshes are decided by the cost-benefit policy: each
    reader query's measured extent/join work travels through the feedback
    buffer and is attributed to the paths it used when the writer drains
    (its latency, carried beside it, feeds only the per-generation cells,
    the latency histogram and the SLO monitor).

    [incident_path] turns the observability layer on: a
    {!Repro_telemetry.Slo} monitor over
    {!Repro_telemetry.Slo.default_objectives} (each query type's latencies
    feed its objective; the window rotates once per non-empty drain) with
    its per-query latency watchdog at 0.25 s, and an incident file
    auto-dumped to that path whenever a drain saw a watchdog trip or an
    SLO breach. The server's operational records (publish, retire,
    rollback, drains, update batches, refreshes, SLO breaches, watchdog
    trips) are always-on {!Repro_telemetry.Trace} kinds, recorded whether
    or not tracing is enabled. *)

(** {1 Reader side — any domain} *)

val query : t -> Repro_pathexpr.Query.t -> Repro_graph.Data_graph.nid array
(** Pin the current epoch, evaluate, unpin, and enqueue the query (with
    its Q2 rewrite paths and measured cost/latency signals) on the
    feedback buffer for the writer's next {!drain_feedback}. Results are
    identical to single-threaded evaluation against the pinned
    generation. *)

val query_pinned : t -> Repro_pathexpr.Query.t -> int * Repro_graph.Data_graph.nid array
(** {!query}, also returning the generation that served the query — the
    hook the differential harness uses to replay the same query against a
    single-threaded oracle pinned at the same generation. *)

(** {1 Writer side — single domain} *)

val apply : t -> Repro_update.Update.op list -> int
(** Apply one update batch through incremental maintenance
    ({!Repro_adaptive.Self_tuning.update}) and publish the result as a new
    epoch; returns the published generation. *)

val force_refresh : t -> int
(** Run frequent-path extraction + incremental update on the current log
    window and publish; returns the published generation. With a
    snapshot, a refresh aborted by a storage fault is rolled back inside
    {!Repro_adaptive.Self_tuning} and the rolled-back (older but
    consistent) state is republished under the fresh generation. *)

val drain_feedback : t -> int * int option
(** Move buffered reader queries into the self-tuning query log
    ([(drained, refreshed)]): when the drained window makes a refresh due,
    the refresh runs and publishes immediately and [refreshed] carries the
    new generation. *)

val rollback : t -> int option
(** Restore the previous generation in the registry (see
    {!Epoch_registry.rollback}) — recovery for a publish that must be
    withdrawn. Returns the restored generation. *)

val retire : t -> int
(** Drain the registry's retire list now (publishing already drains);
    returns epochs freed. *)

(** {1 Introspection} *)

val registry : t -> Epoch.t Epoch_registry.t
val tuner : t -> Repro_adaptive.Self_tuning.t

val generation : t -> int
val publishes : t -> int
val epochs_freed : t -> int
val rollbacks : t -> int
val feedback_drained : t -> int
val feedback_dropped : t -> int

(** {2 Per-epoch attribution}

    The writer attributes every drained observation to the generation
    that served it: query count, extent/join work, and a latency
    histogram per generation, bounded to the last 64 generations. *)

type epoch_totals = private {
  ep_generation : int;
  mutable ep_queries : int;
  mutable ep_extent_pages : int;
  mutable ep_extent_edges : int;
  mutable ep_join_edges : int;
  ep_latency : Repro_telemetry.Metrics.histogram;  (** seconds *)
}

val attribution : t -> epoch_totals list
(** Snapshot of the per-generation accounting, oldest generation first;
    the records and their histograms are copies, so later drains do not
    show through.
    The sum of [ep_queries] equals {!feedback_drained} (while fewer than
    64 generations have been attributed). *)

val introspect : t -> Repro_telemetry.Json.t
(** The server-state document: [server] counters and uptime, [epochs]
    (every registry entry with state/pins/age), [attribution], [slo]
    status with the watchdog's ceiling and trips, [policy] hysteresis
    state, [trace]-ring stats (recorded, retained, overwritten), and the
    full [metrics] snapshot: the tuner's registry, extended with
    [server.*] counters (publishes, epochs_freed, rollbacks,
    feedback_drained), the [server.query_latency_seconds] histogram and
    a [server.epoch.*] source exposing per-epoch gauges (current
    generation, pin count, retire-list length, epochs freed). *)

val incident_dump : ?reason:string -> t -> string -> unit
(** Write an incident file to the given path, counting it in
    [server.incidents]: the {!introspect} document plus [reason], the
    retained always-on records as [events] and the last 256 other trace
    records as [spans] (see {!Repro_telemetry.Export.incident_records}).
    [schemas/incident_schema.json] describes it. *)
