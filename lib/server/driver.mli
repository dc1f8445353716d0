(** Multi-client driver for the concurrent query server: N reader domains
    with seeded query streams against a live writer applying update
    batches and self-tuning refreshes, every change published as a new
    epoch. The run is differentially checkable after the fact — readers
    log (generation, checksum) observations, the writer records each
    published generation's graph, and {!verify_observations} replays every
    observation against the single-threaded naive oracle pinned at the
    same generation. *)

type config = {
  readers : int;  (** reader domains spawned (>= 1) *)
  queries_per_reader : int;  (** stream length; readers loop over it *)
  batches : int;  (** writer update batches *)
  batch_size : int;  (** update ops per batch *)
  seed : int;
  incident_path : string option;
      (** passed to {!Server.create}: turns the SLO monitor and latency
          watchdog on and names the incident file they auto-dump to *)
}

val default_config : config
(** 3 readers x 60 queries, 8 batches of 4 ops, seed 1, no incident path.
    Every run forces a refresh after every 2 batches and logs each
    reader's observations for its first 4 passes and its final one. *)

type observation = {
  obs_pass : int;
  obs_query : int;  (** index into the reader's stream *)
  obs_generation : int;  (** generation that served it *)
  obs_checksum : int;
  obs_length : int;
}

type reader_outcome = {
  reader : int;
  queries_run : int;
  passes : int;
      (** full passes over the stream; the last one starts after the
          writer's final publish, so it's always >= 1 *)
  errors : string list;  (** exceptions caught on the reader, oldest first *)
  latencies : Repro_telemetry.Metrics.Histogram.t array;
      (** seconds, one histogram per query type: QTYPE1, QTYPE2, QTYPE3 *)
  observations : observation list;  (** oldest first *)
}

type report = {
  config : config;
  outcomes : reader_outcome array;
  query_streams : Repro_pathexpr.Query.t array array;  (** per reader *)
  history : (int * Repro_graph.Data_graph.t) array;
      (** (generation, graph) for every published generation, ascending —
          the oracle's input *)
  registry_stats : Epoch_registry.stats;
  publishes : int;
  writer_ops : int;
  feedback_drained : int;
  feedback_dropped : int;
  wall_seconds : float;
  server : Server.t;
      (** the server the run exercised, kept for {!Server.introspect} /
          {!Server.incident_dump} / {!Server.attribution} after the fact *)
}

val checksum : int array -> int
(** FNV-1a over a result array, same fold as [Measure.checksum]. *)

val run : ?config:config -> Repro_graph.Data_graph.t -> report
(** Build a server over the graph, spawn the readers, run the writer
    schedule, join, and retire. The calling domain is the writer; it
    waits for every reader to complete one warm-up pass at the initial
    generation before applying the first batch, so each run covers both
    the pre-publish and post-publish generations. *)

val verify_observations : report -> int
(** Replay every logged observation against {!Repro_pathexpr.Naive_eval}
    on the graph of the generation that served it; returns the number of
    mismatches (0 = every concurrent result was bit-identical to the
    single-threaded oracle at its pinned generation). *)

val merged_qtype_latencies : report -> Repro_telemetry.Metrics.Histogram.t array
(** Every reader's latencies merged, per query type: QTYPE1, QTYPE2,
    QTYPE3. *)

val merged_latencies : report -> Repro_telemetry.Metrics.Histogram.t
(** All query types merged. *)

val total_queries : report -> int
val total_errors : report -> int

val stalled_readers : report -> int
(** Readers that completed zero passes — always 0 unless a reader wedged. *)

val observed_generations : report -> int * int
(** [(min, max)] generation appearing in any observation; [(0, 0)] when
    observations were off. *)

val report_json : dataset:string -> checksum_mismatches:int -> report -> string
(** The `bench serve --json` report (see README for the field reference).
    Pure — the caller writes the file. *)
