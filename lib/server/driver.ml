(* Multi-client mixed read/write driver.

   Spawns N reader domains, each with its own seeded query stream and a
   private latency histogram, against a live writer (the calling domain)
   that alternates update batches with self-tuning refreshes, publishing
   an epoch after every change. Readers loop over their stream until the
   writer signals completion, and always finish with one full pass that
   starts after the last publish — so every run covers both "query during
   publish" and "query on the final generation". The writer also waits
   for every reader to finish one warm-up pass before its first batch,
   so every run provably serves queries at the initial generation too.

   Every query a reader runs can be logged as an observation:
   (generation served, query index, result checksum, result length).
   Together with the per-generation graph history the writer records at
   each publish, that makes the run differentially checkable after the
   fact: [verify_observations] replays every observation against the
   naive single-threaded oracle on the graph of the generation that
   served it — bit-identical results required. *)

module Data_graph = Repro_graph.Data_graph
module Naive_eval = Repro_pathexpr.Naive_eval
module Query = Repro_pathexpr.Query
module Generate = Repro_workload.Generate
module Update_workload = Repro_workload.Update_workload
module Metrics = Repro_telemetry.Metrics
module Trace = Repro_telemetry.Trace
module Registry = Epoch_registry

type config = {
  readers : int;
  queries_per_reader : int;
  batches : int;  (* writer update batches *)
  batch_size : int;  (* update ops per batch *)
  seed : int;
  incident_path : string option;  (* passed to Server.create: obs layer on *)
}

let default_config =
  { readers = 3;
    queries_per_reader = 60;
    batches = 8;
    batch_size = 4;
    seed = 1;
    incident_path = None
  }

(* the writer forces a refresh after every [refresh_every_batches] batches *)
let refresh_every_batches = 2

(* the tuner's periodic window, kept out of reach so the writer's explicit
   cadence is the only refresh source *)
let tuner_refresh_every = 1_000_000

(* observation bound per reader; the final post-publish pass is always
   logged *)
let max_logged_passes = 4

type observation = {
  obs_pass : int;
  obs_query : int;  (* index into the reader's stream *)
  obs_generation : int;  (* generation that served it *)
  obs_checksum : int;
  obs_length : int;
}

type reader_outcome = {
  reader : int;
  queries_run : int;
  passes : int;
  errors : string list;
  latencies : Metrics.Histogram.t array;  (* seconds, per QTYPE1/2/3 *)
  observations : observation list;  (* oldest first *)
}

type report = {
  config : config;
  outcomes : reader_outcome array;
  query_streams : Query.t array array;  (* per reader *)
  history : (int * Data_graph.t) array;  (* (generation, graph), ascending *)
  registry_stats : Registry.stats;
  publishes : int;
  writer_ops : int;
  feedback_drained : int;
  feedback_dropped : int;
  wall_seconds : float;
  server : Server.t;  (* kept alive for introspection / incident dumps *)
}

(* Same FNV-1a fold as Measure.checksum over a single result array, so
   driver observations and oracle replays compare one int. *)
let checksum r =
  let fnv h x = (h lxor x) * 0x100000001b3 land max_int in
  Array.fold_left fnv (fnv 0x3bf29ce484222325 (-1)) r

let query_stream ~seed ~reader ~n g =
  let rand = Random.State.make [| 0x5e7e; seed; reader |] in
  let n1 = max 1 (n / 2) in
  let n2 = max 1 (n / 4) in
  let n3 = max 1 (n - n1 - n2) in
  Array.concat [ Generate.qtype1 ~n:n1 rand g; Generate.qtype2 ~n:n2 rand g; Generate.qtype3 ~n:n3 rand g ]

let qtype_index = function Query.Qtype1 _ -> 0 | Query.Qtype2 _ -> 1 | Query.Qtype3 _ -> 2

let reader_body server go writer_done first_pass_done reader stream =
  let latencies = Array.init 3 (fun _ -> Metrics.Histogram.create ()) in
  let observations = ref [] in
  let errors = ref [] in
  let queries_run = ref 0 in
  let passes = ref 0 in
  while not (Atomic.get go) do
    Domain.cpu_relax ()
  done;
  let continue = ref true in
  while !continue do
    (* sample the flag before the pass: when it was already set, this pass
       runs entirely after the writer's last publish and is the final one *)
    let last_pass = Atomic.get writer_done in
    Array.iteri
      (fun qi q ->
        let t0 = Trace.now_ns () in
        match Server.query_pinned server q with
        | generation, result ->
          Metrics.Histogram.record latencies.(qtype_index q)
            (Float.of_int (Trace.now_ns () - t0) *. 1e-9);
          incr queries_run;
          if !passes < max_logged_passes || last_pass then
            observations :=
              { obs_pass = !passes;
                obs_query = qi;
                obs_generation = generation;
                obs_checksum = checksum result;
                obs_length = Array.length result
              }
              :: !observations
        | exception e -> errors := Printexc.to_string e :: !errors)
      stream;
    incr passes;
    (* warm-up barrier: the writer holds its first batch until every
       reader reports one complete pass at the initial generation *)
    if !passes = 1 then Atomic.incr first_pass_done;
    if last_pass then continue := false
  done;
  { reader;
    queries_run = !queries_run;
    passes = !passes;
    errors = List.rev !errors;
    latencies;
    observations = List.rev !observations
  }

let chunk n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let run ?(config = default_config) graph =
  if config.readers < 1 then invalid_arg "Driver.run: need at least one reader";
  let server =
    Server.create ~refresh_every:tuner_refresh_every ~min_support:0.05
      ?incident_path:config.incident_path graph
  in
  let history = ref [] in
  let record_generation () =
    let entry = Registry.pin (Server.registry server) in
    history :=
      (Registry.generation entry, Epoch.graph (Registry.payload entry)) :: !history;
    Registry.unpin entry
  in
  record_generation ();
  let streams =
    Array.init config.readers (fun reader ->
        query_stream ~seed:config.seed ~reader ~n:config.queries_per_reader graph)
  in
  let ops, _evolved =
    Update_workload.gen_ops ~seed:config.seed ~n:(config.batches * config.batch_size) graph
  in
  let batches = chunk config.batch_size ops in
  let writer_ops = List.length ops in
  let go = Atomic.make false in
  let writer_done = Atomic.make false in
  let first_pass_done = Atomic.make 0 in
  let domains =
    Array.init config.readers (fun reader ->
        let stream = streams.(reader) in
        Domain.spawn (fun () ->
            reader_body server go writer_done first_pass_done reader stream))
  in
  let t0 = Trace.now_ns () in
  Atomic.set go true;
  while Atomic.get first_pass_done < config.readers do
    Domain.cpu_relax ()
  done;
  List.iteri
    (fun b batch ->
      ignore (Server.drain_feedback server : int * int option);
      ignore (Server.apply server batch : int);
      record_generation ();
      if (b + 1) mod refresh_every_batches = 0 then begin
        ignore (Server.force_refresh server : int);
        record_generation ()
      end)
    batches;
  ignore (Server.drain_feedback server : int * int option);
  ignore (Server.force_refresh server : int);
  record_generation ();
  Atomic.set writer_done true;
  let outcomes = Array.map Domain.join domains in
  let wall_seconds = Float.of_int (Trace.now_ns () - t0) *. 1e-9 in
  (* one last drain now that every reader has finished: the final pass's
     observations reach the attribution table, so per-generation query
     totals reconcile exactly with total_queries - feedback_dropped *)
  ignore (Server.drain_feedback server : int * int option);
  ignore (Server.retire server : int);
  { config;
    outcomes;
    query_streams = streams;
    history = Array.of_list (List.rev !history);
    registry_stats = Registry.stats (Server.registry server);
    publishes = Server.publishes server;
    writer_ops;
    feedback_drained = Server.feedback_drained server;
    feedback_dropped = Server.feedback_dropped server;
    wall_seconds;
    server
  }

(* --- post-hoc differential verification --- *)

let verify_observations report =
  let graph_at = Hashtbl.create 32 in
  Array.iter (fun (gen, g) -> Hashtbl.replace graph_at gen g) report.history;
  let mismatches = ref 0 in
  Array.iter
    (fun outcome ->
      let stream = report.query_streams.(outcome.reader) in
      List.iter
        (fun o ->
          match Hashtbl.find_opt graph_at o.obs_generation with
          | None -> incr mismatches (* served by a generation never published *)
          | Some g ->
            let expected = Naive_eval.eval_query g stream.(o.obs_query) in
            if
              Array.length expected <> o.obs_length
              || checksum expected <> o.obs_checksum
            then incr mismatches)
        outcome.observations)
    report.outcomes;
  !mismatches

(* --- aggregates / serialization --- *)

let merged_qtype_latencies report =
  Array.init 3 (fun i ->
      Array.fold_left
        (fun acc o -> Metrics.Histogram.merge acc o.latencies.(i))
        (Metrics.Histogram.create ())
        report.outcomes)

let merged_latencies report =
  Array.fold_left Metrics.Histogram.merge (Metrics.Histogram.create ())
    (merged_qtype_latencies report)

let total_queries report = Array.fold_left (fun acc o -> acc + o.queries_run) 0 report.outcomes
let total_errors report = Array.fold_left (fun acc o -> acc + List.length o.errors) 0 report.outcomes

let stalled_readers report =
  Array.fold_left (fun acc o -> if o.passes = 0 then acc + 1 else acc) 0 report.outcomes

let observed_generations report =
  let lo = ref max_int and hi = ref 0 in
  Array.iter
    (fun o ->
      List.iter
        (fun obs ->
          if obs.obs_generation < !lo then lo := obs.obs_generation;
          if obs.obs_generation > !hi then hi := obs.obs_generation)
        o.observations)
    report.outcomes;
  if !hi = 0 then (0, 0) else (!lo, !hi)

let report_json ~dataset ~checksum_mismatches report =
  let module Json = Repro_telemetry.Json in
  let int n = Json.Num (Float.of_int n) in
  let us v = Json.Num (v *. 1e6) in
  let quantiles h ps =
    List.map (fun (name, p) -> (name, us (Metrics.Histogram.quantile h p))) ps
  in
  let h = merged_latencies report in
  let gen_lo, gen_hi = observed_generations report in
  let reg = report.registry_stats in
  Json.to_string
    (Json.Obj
       [ ("experiment", Json.Str "serve");
         ("dataset", Json.Str dataset);
         ("readers", int report.config.readers);
         ("queries_per_reader", int report.config.queries_per_reader);
         ("total_queries", int (total_queries report));
         ("reader_errors", int (total_errors report));
         ("reader_stalls", int (stalled_readers report));
         ("checksum_mismatches", int checksum_mismatches);
         ("publishes", int report.publishes);
         ( "generations",
           Json.Obj
             [ ("published", int reg.Registry.generations);
               ("observed_min", int gen_lo);
               ("observed_max", int gen_hi) ] );
         ( "epochs",
           Json.Obj
             [ ("freed", int reg.Registry.freed);
               ("retired_live", int reg.Registry.retired_live);
               ("rolled_back", int reg.Registry.rolled_back) ] );
         ( "latency_us",
           Json.Obj
             (quantiles h [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]
             @ [ ("mean", us (Metrics.Histogram.mean h));
                 ("max", us (Metrics.Histogram.max_value h)) ]) );
         ( "latency_by_qtype_us",
           Json.Obj
             (Array.to_list
                (Array.mapi
                   (fun i h ->
                     ( Printf.sprintf "q%d" (i + 1),
                       Json.Obj
                         (("count", int (Metrics.Histogram.count h))
                         :: quantiles h [ ("p50", 0.5); ("p99", 0.99) ]) ))
                   (merged_qtype_latencies report))) );
         ( "writer",
           Json.Obj [ ("batches", int report.config.batches); ("ops", int report.writer_ops) ] );
         ( "feedback",
           Json.Obj
             [ ("drained", int report.feedback_drained);
               ("dropped", int report.feedback_dropped) ] );
         ("wall_seconds", Json.Num report.wall_seconds) ])
  ^ "\n"
