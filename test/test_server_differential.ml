(* Server differential suite: N reader domains with seeded query streams
   against a live writer applying update batches and self-tuning
   refreshes, every change published as a fresh epoch.

   Correctness bar: each query a reader ran concurrently must be
   bit-identical (checksum and length) to a single-threaded naive-oracle
   replay pinned at the same epoch generation — snapshot isolation means
   a concurrent publish can change *which* generation serves a query, but
   never what that generation answers.

   Seeds come from SERVER_DIFF_SEEDS (comma-separated, default "1,2" —
   CI shards one seed per job). Replay a failure locally with
     SERVER_DIFF_SEEDS=N dune exec test/test_server_differential.exe *)

module Driver = Repro_server.Driver
module Server = Repro_server.Server
module Fixtures = Test_support.Fixtures

let seeds =
  match Sys.getenv_opt "SERVER_DIFF_SEEDS" with
  | None | Some "" -> [ 1; 2 ]
  | Some s ->
    List.map
      (fun tok ->
        match int_of_string_opt (String.trim tok) with
        | Some n -> n
        | None -> failwith (Printf.sprintf "SERVER_DIFF_SEEDS: bad token %S" tok))
      (String.split_on_char ',' s)

let config seed =
  { Driver.default_config with
    Driver.seed;
    readers = 3;
    queries_per_reader = 30;
    batches = 8;
    batch_size = 3;
    refresh_every_batches = 2
  }

let check_run seed () =
  let graph = Fixtures.movie_db () in
  let cfg = config seed in
  let report = Driver.run ~config:cfg graph in
  (* liveness: nobody crashed, nobody wedged, everyone got at least one
     full pass in (the last one always lands after the final publish) *)
  Alcotest.(check (list string))
    "no reader errors" []
    (Array.fold_left (fun acc o -> acc @ o.Driver.errors) [] report.Driver.outcomes);
  Alcotest.(check int) "no stalled readers" 0 (Driver.stalled_readers report);
  Array.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "reader %d completed passes" o.Driver.reader)
        true (o.Driver.passes >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "reader %d logged observations" o.Driver.reader)
        true (o.Driver.observations <> []))
    report.Driver.outcomes;
  (* the writer's schedule is deterministic: one publish per batch, one per
     forced refresh (every 2 batches), one final refresh *)
  let expected_publishes = cfg.Driver.batches + (cfg.Driver.batches / 2) + 1 in
  Alcotest.(check int) "publishes" expected_publishes report.Driver.publishes;
  Alcotest.(check int) "every publish recorded for the oracle"
    (expected_publishes + 1)
    (Array.length report.Driver.history);
  (* readers served across the publish stream: the warm-up barrier pins
     every reader's first pass at generation 1, and the final pass always
     lands after the last publish — both ends are deterministic *)
  let gen_lo, gen_hi = Driver.observed_generations report in
  Alcotest.(check int) "final generation observed" (expected_publishes + 1) gen_hi;
  Alcotest.(check int) "initial generation observed" 1 gen_lo;
  (* the differential core: every logged observation replays bit-identical
     on the single-threaded oracle at its pinned generation *)
  Alcotest.(check int) "oracle mismatches" 0 (Driver.verify_observations report);
  (* epoch hygiene: the run ends retired — nothing leaks, nothing lingers *)
  Alcotest.(check int) "retire list drained" 0
    report.Driver.registry_stats.Repro_server.Epoch_registry.retired_live;
  Alcotest.(check int) "no rollbacks on a fault-free run" 0
    report.Driver.registry_stats.Repro_server.Epoch_registry.rolled_back;
  (* attribution reconciliation: the driver's final drain means every
     observation that made it into the feedback buffer is attributed to
     exactly one serving generation — per-epoch totals must re-add to the
     global counters, and the per-epoch latency histograms must hold one
     sample per attributed query *)
  let server = report.Driver.server in
  let attribution = Server.attribution server in
  let attributed =
    List.fold_left (fun acc e -> acc + e.Server.ep_queries) 0 attribution
  in
  Alcotest.(check int) "attributed queries = feedback drained"
    (Server.feedback_drained server) attributed;
  Alcotest.(check int) "drained + dropped = queries observed"
    (Server.observed server)
    (Server.feedback_drained server);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "generation %d in served range" e.Server.ep_generation)
        true
        (e.Server.ep_generation >= gen_lo && e.Server.ep_generation <= gen_hi);
      Alcotest.(check int)
        (Printf.sprintf "generation %d latency samples" e.Server.ep_generation)
        e.Server.ep_queries
        (Repro_telemetry.Metrics.Histogram.count e.Server.ep_latency))
    attribution;
  (* the introspection document is well-formed JSON exposing the same
     totals the typed API just reconciled *)
  let module J = Repro_telemetry.Json in
  let doc =
    match J.parse (J.to_string (Server.introspect server)) with
    | Ok v -> v
    | Error m -> Alcotest.failf "introspect does not round-trip: %s" m
  in
  let get o k =
    match J.member k o with
    | Some v -> v
    | None -> Alcotest.failf "introspect: missing %S" k
  in
  let int_field o k =
    match J.to_float (get o k) with
    | Some f -> int_of_float f
    | None -> Alcotest.failf "introspect: %S is not a number" k
  in
  Alcotest.(check int) "introspect generation"
    (Server.generation server)
    (int_field (get doc "server") "generation");
  Alcotest.(check int) "introspect drained"
    (Server.feedback_drained server)
    (int_field (get doc "server") "feedback_drained");
  let attr_json =
    match J.to_list (get doc "attribution") with
    | Some l -> l
    | None -> Alcotest.failf "introspect: attribution is not an array"
  in
  Alcotest.(check int) "introspect epoch count"
    (List.length attribution)
    (List.length attr_json);
  (* the serve report (BENCH_SERVE.json) reads back through Json.parse
     with the fields its readers use, agreeing with the typed totals *)
  let serve =
    match
      J.parse
        (Driver.report_json ~dataset:"movie_db"
           ~checksum_mismatches:(Driver.verify_observations report) report)
    with
    | Ok v -> v
    | Error m -> Alcotest.failf "serve report does not parse: %s" m
  in
  Alcotest.(check int) "report total_queries" (Driver.total_queries report)
    (int_field serve "total_queries");
  Alcotest.(check int) "report checksum_mismatches" 0 (int_field serve "checksum_mismatches");
  Alcotest.(check int) "report publishes" expected_publishes (int_field serve "publishes");
  List.iter (fun k -> ignore (int_field (get serve "latency_us") k)) [ "p50"; "p90"; "p99" ];
  Alcotest.(check int) "report per-qtype counts add up" (Driver.total_queries report)
    (List.fold_left
       (fun acc q ->
         let row = get (get serve "latency_by_qtype_us") q in
         ignore (int_field row "p50" + int_field row "p99");
         acc + int_field row "count")
       0 [ "q1"; "q2"; "q3" ])

let () =
  let cases =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed=%d" seed) `Quick (check_run seed))
      seeds
  in
  Alcotest.run "server-differential" [ ("readers-vs-oracle", cases) ]
