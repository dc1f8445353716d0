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
    batch_size = 3
  }

(* the serve report `bench serve --json` writes for [report], read back
   through Json.parse *)
let serve_json report =
  match
    Repro_telemetry.Json.parse
      (Driver.report_json ~dataset:"movie_db"
         ~checksum_mismatches:(Driver.verify_observations report) report)
  with
  | Ok v -> v
  | Error m -> Alcotest.failf "serve report does not parse: %s" m

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
  (* the serve report (`bench serve --json`) reads back through Json.parse
     with the fields its readers use, agreeing with the typed totals *)
  let serve = serve_json report in
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

(* A serve report carries every field README's serve field table lists,
   the per-qtype split included, and reports a clean run: no reader
   error, no stall, no oracle mismatch. *)
let test_serve_report_fields () =
  let module J = Repro_telemetry.Json in
  let serve = serve_json (Driver.run ~config:(config 1) (Fixtures.movie_db ())) in
  let number path =
    match
      Option.bind (List.fold_left (fun j k -> Option.bind j (J.member k)) (Some serve) path) J.to_float
    with
    | Some f -> f
    | None -> Alcotest.failf "serve report: %s is not a number" (String.concat "." path)
  in
  List.iter
    (fun path -> ignore (number path : float))
    ([ [ "readers" ]; [ "queries_per_reader" ]; [ "total_queries" ]; [ "reader_errors" ];
       [ "reader_stalls" ]; [ "checksum_mismatches" ]; [ "publishes" ];
       [ "generations"; "published" ]; [ "generations"; "observed_min" ];
       [ "generations"; "observed_max" ]; [ "epochs"; "freed" ]; [ "epochs"; "retired_live" ];
       [ "epochs"; "rolled_back" ]; [ "writer"; "batches" ]; [ "writer"; "ops" ];
       [ "feedback"; "drained" ]; [ "feedback"; "dropped" ]; [ "wall_seconds" ] ]
    @ List.map (fun k -> [ "latency_us"; k ]) [ "p50"; "p90"; "p99"; "mean"; "max" ]
    @ List.concat_map
        (fun q -> List.map (fun k -> [ "latency_by_qtype_us"; q; k ]) [ "count"; "p50"; "p99" ])
        [ "q1"; "q2"; "q3" ]);
  List.iter
    (fun k -> Alcotest.(check (float 0.)) k 0. (number [ k ]))
    [ "reader_errors"; "reader_stalls"; "checksum_mismatches" ]

(* The observability path `bench serve --obs` takes: a run with an
   incident path monitors the default q1/q2/q3 objectives, and a forced
   incident dump conforms to the checked-in schema, is the introspection
   document (same server counters and attribution), and still holds the
   writer's history (update batches, publishes, drains, refreshes) after
   a burst of queries; the introspection's metrics carry the served
   queries' latency histogram. The schema is found from the repository
   root or from test/, so the suite runs from both. *)
let test_obs_path () =
  let path = Filename.temp_file "apex_obs" ".incident.json" in
  let report =
    Driver.run
      ~config:{ (config 1) with Driver.incident_path = Some path }
      (Fixtures.movie_db ())
  in
  let server = report.Driver.server in
  (* a burst of traffic after the last update, twice the writer ring's
     1024 slots: the dump must still hold the writer's records *)
  let stream = report.Driver.query_streams.(0) in
  for i = 0 to 2047 do
    ignore (Server.query server stream.(i mod Array.length stream) : int array)
  done;
  ignore (Server.drain_feedback server : int * int option);
  Server.incident_dump ~reason:"test: forced dump" server path;
  let schema_path =
    List.find Sys.file_exists
      [ "schemas/incident_schema.json"; "../schemas/incident_schema.json" ]
  in
  (match Repro_telemetry.Schema.validate_file ~schema_path path with
   | Ok () -> ()
   | Error errors -> Alcotest.failf "incident dump: %s" (String.concat "; " errors));
  let module J = Repro_telemetry.Json in
  let dump =
    match J.parse_file path with
    | Ok j -> j
    | Error e -> Alcotest.failf "incident dump: %s" e
  in
  Sys.remove path;
  let live = Server.introspect server in
  let section doc key =
    match J.member key doc with
    | Some (J.Obj fields) when key = "server" ->
      J.to_string (J.Obj (List.remove_assoc "uptime_seconds" fields))
    | Some v -> J.to_string v
    | None -> Alcotest.failf "missing %S" key
  in
  List.iter
    (fun key ->
      Alcotest.(check string) ("dump " ^ key ^ " = introspect " ^ key) (section live key)
        (section dump key))
    [ "server"; "attribution" ];
  let retained =
    match J.member "events" dump with
    | Some (J.Arr events) -> List.filter_map (fun e -> Option.bind (J.member "name" e) J.to_str) events
    | _ -> Alcotest.fail "incident dump: no events array"
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("retains " ^ kind) true (List.mem kind retained))
    [ "update_batch"; "epoch_publish"; "drain"; "refresh_published" ];
  let names =
    match Option.bind (J.member "slo" live) (J.member "objectives") with
    | Some (J.Arr objectives) ->
      List.map (fun o -> Option.bind (J.member "name" o) J.to_str) objectives
    | _ -> Alcotest.fail "introspect: no slo.objectives array"
  in
  Alcotest.(check (list (option string))) "SLO objectives"
    [ Some "q1"; Some "q2"; Some "q3" ] names;
  let latency_count =
    Option.bind
      (Option.bind (J.member "metrics" live) (J.member "server.query_latency_seconds"))
      (J.member "count")
  in
  Alcotest.(check bool) "metrics carry the query latency histogram" true
    (match Option.bind latency_count J.to_float with Some n -> n > 0. | None -> false)

(* Snapshot isolation of a pinned epoch under a busy writer: its answers to
   200 Q1/Q3 queries and every row of its graph are the same after 20
   update batches and 2 forced refreshes as before them. The rows are
   re-read through the epoch's own graph, so a writer that edited a shared
   row in place (instead of replacing it) shows up here even when the
   answers happen not to depend on it. *)
module Dataset = Repro_datagen.Dataset
module Generate = Repro_workload.Generate
module G = Repro_graph.Data_graph
module Epoch = Repro_server.Epoch
module Registry = Repro_server.Epoch_registry

let graph_rows g =
  Array.init (G.n_nodes g) (fun v ->
      let out = ref [] and inn = ref [] in
      G.iter_out g v (fun l w -> out := (l, w) :: !out);
      G.iter_in g v (fun l u -> inn := (l, u) :: !inn);
      (!out, !inn, G.value g v))

let test_pinned_epoch_isolation () =
  let spec =
    match Dataset.by_name "Ged01" with
    | Some s -> Dataset.scaled s 0.02
    | None -> Alcotest.fail "no Ged01"
  in
  let g0 = Dataset.build_graph spec in
  let server = Server.create g0 in
  let rand = Random.State.make [| 19 |] in
  let queries = Array.append (Generate.qtype1 ~n:150 rand g0) (Generate.qtype3 ~n:50 rand g0) in
  let entry = Registry.pin (Server.registry server) in
  let epoch = Registry.payload entry in
  let answers () = Array.map (Epoch.eval epoch) queries in
  let before = answers () and rows = graph_rows (Epoch.graph epoch) in
  let writer_graph () =
    Repro_apex.Apex.graph (Repro_adaptive.Self_tuning.apex (Server.tuner server))
  in
  for b = 1 to 20 do
    let ops, _ = Repro_workload.Update_workload.gen_ops ~seed:(100 + b) ~n:4 (writer_graph ()) in
    ignore (Server.apply server ops : int);
    if b mod 10 = 0 then begin
      Array.iter (fun q -> ignore (Server.query server q : int array)) queries;
      ignore (Server.drain_feedback server : int * int option);
      ignore (Server.force_refresh server : int)
    end
  done;
  Alcotest.(check bool) "the writer moved on" true (Server.generation server > 20);
  Alcotest.(check bool) "the writer's graph changed" true (graph_rows (writer_graph ()) <> rows);
  let after = answers () in
  Array.iteri
    (fun i q ->
      Alcotest.(check (array int))
        (Printf.sprintf "pinned answer to %s" (Repro_pathexpr.Query.to_string q))
        before.(i) after.(i))
    queries;
  Alcotest.(check bool) "pinned graph rows untouched" true (graph_rows (Epoch.graph epoch) = rows);
  Registry.unpin entry

let () =
  let cases =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed=%d" seed) `Quick (check_run seed))
      seeds
  in
  Alcotest.run "server-differential"
    [ ("readers-vs-oracle", cases);
      ("serve-report", [ Alcotest.test_case "readme fields" `Quick test_serve_report_fields ]);
      ("observability", [ Alcotest.test_case "obs path" `Quick test_obs_path ]);
      ("epoch-isolation", [ Alcotest.test_case "pinned epoch" `Quick test_pinned_epoch_isolation ])
    ]
