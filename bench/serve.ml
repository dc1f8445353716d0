(* The serve benchmark: multi-client mixed read/write workload against the
   concurrent query server, reporting reader latency percentiles and epoch
   lifecycle counts (written as JSON with --json).

   The run is also a correctness check: every logged reader observation is
   replayed against the naive single-threaded oracle pinned at the same
   generation, and the mismatch count lands in the JSON — a green serve
   bench is a differential pass, not just a timing. *)

module Driver = Repro_server.Driver
module Server = Repro_server.Server
module Dataset = Repro_datagen.Dataset
module Experiments = Repro_harness.Experiments

(* With --obs PREFIX the run turns the observability layer on — SLO
   monitor on the default q1/q2/q3 objectives with its latency watchdog,
   auto incident dumps — and ends by writing a forced incident dump (the
   server-state document, metrics registry included) next to the JSON
   report. The CI observability-smoke job validates it. *)
let run ?obs (config : Experiments.config) ~out =
  let spec =
    match config.Experiments.datasets with
    | spec :: _ -> Dataset.scaled spec config.Experiments.scale
    | [] -> failwith "serve: no dataset configured"
  in
  Printf.printf "serve: dataset %s (target %d nodes)\n%!" spec.Dataset.name
    spec.Dataset.target_nodes;
  let g = Dataset.build_graph spec in
  let driver_config =
    { Driver.default_config with
      Driver.incident_path = Option.map (fun prefix -> prefix ^ ".incident.json") obs
    }
  in
  let report = Driver.run ~config:driver_config g in
  let mismatches = Driver.verify_observations report in
  Option.iter
    (fun out ->
      let json =
        Driver.report_json ~dataset:spec.Dataset.name ~checksum_mismatches:mismatches report
      in
      Out_channel.with_open_text out (fun oc -> output_string oc json);
      Printf.printf "serve: wrote %s\n%!" out)
    out;
  (match obs with
   | None -> ()
   | Some prefix ->
     Server.incident_dump ~reason:"bench serve: forced dump" report.Driver.server
       (prefix ^ ".incident.json");
     Printf.printf "serve: wrote %s.incident.json\n%!" prefix);
  let h = Driver.merged_latencies report in
  let q p = Repro_telemetry.Metrics.Histogram.quantile h p *. 1e6 in
  Printf.printf
    "serve: %d queries on %d readers across %d publishes — p50 %.1fus p99 %.1fus, %d errors, \
     %d stalls, %d oracle mismatches\n\
     %!"
    (Driver.total_queries report)
    report.Driver.config.Driver.readers report.Driver.publishes (q 0.5) (q 0.99)
    (Driver.total_errors report)
    (Driver.stalled_readers report)
    mismatches;
  Array.iteri
    (fun i h ->
      let q p = Repro_telemetry.Metrics.Histogram.quantile h p *. 1e6 in
      Printf.printf "  q%d: %d queries, p50 %.1f us, p99 %.1f us\n%!" (i + 1)
        (Repro_telemetry.Metrics.Histogram.count h) (q 0.5) (q 0.99))
    (Driver.merged_qtype_latencies report);
  if Driver.total_errors report > 0 || Driver.stalled_readers report > 0 || mismatches > 0 then
    failwith "serve: reader errors, stalls, or oracle mismatches"
