(** A self-tuning APEX: query evaluation, workload logging, and periodic
    incremental refresh behind one handle.

    This is the loop of Figure 4 run automatically: every evaluated query
    is recorded in a bounded {!Repro_workload.Query_log}; after each
    [refresh_every] recorded queries the frequently-used-path extraction
    and incremental update run on the current window. The paper leaves the
    refresh trigger to the end user ("by request or periodical") — this
    component implements both: the periodic policy plus {!force_refresh}. *)

type t

val create :
  ?log_capacity:int ->
  ?min_support:float ->
  ?refresh_every:int ->
  ?pool:Repro_storage.Buffer_pool.t ->
  ?snapshot:Repro_apex.Apex_persist.Snapshot.t ->
  ?policy:Policy.t ->
  Repro_graph.Data_graph.t ->
  t
(** Builds APEX0 over the graph. Defaults: a 1000-entry log, minSup 0.005,
    refresh every 500 recorded queries. When [pool] is given the index is
    (re)materialized there after every refresh, so costed evaluation pays
    page I/O throughout.

    When [snapshot] is given, APEX0 is committed as the first epoch and
    every successful refresh commits a new one; a refresh that hits a
    storage fault ({!Repro_storage.Fault.Injected} or a detected-corruption
    [Invalid_argument]) is rolled back — the index reloads from the newest
    committed epoch and keeps answering queries, the abort is counted in
    [Io_stats.refresh_aborts] and {!aborted_refreshes}, and the refresh
    window is consumed so the next attempt waits a full window.

    When [policy] is given, refreshes are decided by the cost-benefit
    {!Policy} instead of raw window support: every evaluated query is
    measured (extent pages / extent edges / join edges against a private
    {!Repro_storage.Cost}) and attributed to the
    paths it used; each refresh rolls the policy's decayed accumulators,
    prunes/keeps paths through {!Policy.decide}, and commits the plan only
    after the refresh (and its epoch commit) landed — a rolled-back
    refresh leaves the policy's hysteresis state untouched. Results remain
    identical either way; only which paths get promoted/evicted moves. *)

val query :
  ?cost:Repro_storage.Cost.t ->
  ?table:Repro_storage.Data_table.t ->
  t ->
  Repro_pathexpr.Query.t ->
  Repro_graph.Data_graph.nid array
(** Evaluate, log, and refresh if the policy says so. Results are always
    identical to evaluating against a non-adaptive APEX — adaptation only
    moves cost. *)

val force_refresh : t -> unit
(** Run extraction + update on the current log window immediately. *)

(** {1 Serving-layer entry points}

    The concurrent server ([Repro_server]) evaluates queries on reader
    domains against published read-only epochs, so {!query}'s
    evaluate-log-refresh loop splits into writer-domain pieces: readers'
    executed queries arrive through {!record_external}, the writer polls
    {!due_for_refresh}, and {!refresh_and_publish} runs the refresh with
    the epoch-publication continuation — the refresh-through-registry
    path. *)

val record_external : t -> ?q2_paths:Repro_pathexpr.Label_path.t list ->
  ?extent_pages:int -> ?extent_edges:int -> ?join_edges:int ->
  Repro_pathexpr.Query.t -> unit
(** Log a query without evaluating it or triggering a refresh: {!query}
    logs through here, and so does the server for queries its reader
    domains evaluated against a published epoch. [q2_paths] are the
    label paths Q2 rewriting matched, as reported by the evaluator's
    [on_sequence]; the cost counters (all defaulting to 0) are the
    query's measured extent and join work, fed to the adaptation policy
    when one was supplied. Call only from the writer domain. *)

val due_for_refresh : t -> bool
(** Whether a full [refresh_every] window has been recorded since the last
    refresh — the periodic policy exposed as a poll, for callers that must
    couple the refresh with an epoch publish. *)

val refresh_and_publish : t -> publish:(Repro_apex.Apex.t -> 'a) -> 'a
(** {!force_refresh}, then hand the post-refresh index to [publish] (the
    server's epoch-publication entry point) and return its result. When
    the refresh was rolled back after a fault, [publish] still runs — on
    the rolled-back index — so the serving side republishes a consistent
    (if older) state under a fresh generation. *)

val update : t -> Repro_update.Update.op list -> unit
(** Apply data updates through the incremental maintenance engine
    ({!Repro_update.Update.apply}) — the index is patched, never rebuilt,
    and only the touched extents are re-persisted. Updates interleave
    freely with {!query}/{!force_refresh}; a refresh after updates starts
    from the maintained index. When a snapshot was supplied, the
    post-update state is committed as a new epoch. A storage fault while
    flushing falls back to rebuilding the in-memory index over the mutated
    graph (the data change is never lost) and counts in
    {!aborted_updates}; operand errors ([Invalid_argument]) propagate with
    every operation before the offending one applied. *)

val apex : t -> Repro_apex.Apex.t
val log : t -> Repro_workload.Query_log.t

val policy : t -> Policy.t option
(** The cost-benefit policy supplied to {!create}, if any. *)

val metrics : t -> Repro_telemetry.Metrics.t
(** This instance's registry: the [self_tuning.*] adaptation counters that
    back the accessors below, plus an [io.*] source over the pool's pager
    stats when a pool was supplied. *)

val refreshes : t -> int
(** Number of refreshes completed successfully so far (periodic and
    forced). Aborted refreshes are not counted here. *)

val aborted_refreshes : t -> int
(** Number of refreshes rolled back to the previous snapshot epoch after a
    storage fault. Always 0 when no snapshot was supplied to {!create}. *)

val updates : t -> int
(** Number of update operations applied so far. *)

val aborted_updates : t -> int
(** Number of update batches whose incremental flush or epoch commit hit a
    storage fault (each recovered without losing the data change). *)
