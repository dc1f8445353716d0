(* apexctl: offline telemetry and static-analysis introspection.

     apexctl stats trace.jsonl                    # per-phase latency percentiles
     apexctl validate --schema schemas/trace_schema.json \
         trace.jsonl trace.trace.json             # audit exported traces
     apexctl lint-report --json \
         --schema schemas/lint_report_schema.json # domain-safety report

   `bench --trace PREFIX` produces the trace inputs; `stats` aggregates a
   saved JSONL event log into per-phase latency histograms and
   adaptation-event totals, and `validate` checks both export formats
   against the checked-in schema (field presence, JSON types, legal
   record kinds). `lint-report` runs the whole-program domain-safety
   analysis (tools/lint) and emits the mutability map, findings, and
   guarded-mutation inventory as schema-validated JSON for CI to diff
   across PRs. *)

module Export = Repro_telemetry.Export

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let cmd_stats path =
  match Export.read_jsonl path with
  | Error e -> die "apexctl stats: %s: %s" path e
  | Ok records ->
    let spans = Export.summarize records in
    if spans = [] then print_endline "no spans recorded"
    else begin
      Printf.printf "%d records in %s\n\n" (List.length records) path;
      print_string (Export.percentile_table spans)
    end;
    let events = Export.event_totals records in
    if events <> [] then
      Printf.printf "\ninstant events:\n%s" (Export.event_table events)

let cmd_validate schema_path paths =
  match Export.Schema.load schema_path with
  | Error e -> die "apexctl validate: %s" e
  | Ok schema ->
    let failed = ref false in
    List.iter
      (fun path ->
        let validate =
          if Filename.check_suffix path ".jsonl" then Export.Schema.validate_jsonl
          else Export.Schema.validate_chrome
        in
        match validate schema path with
        | Ok n -> Printf.printf "%s: OK (%d records)\n" path n
        | Error errors ->
          failed := true;
          Printf.printf "%s: %d violation(s)\n" path (List.length errors);
          List.iteri
            (fun i e -> if i < 20 then Printf.printf "  %s\n" e)
            errors;
          if List.length errors > 20 then
            Printf.printf "  ... and %d more\n" (List.length errors - 20))
      paths;
    if !failed then exit 1

module Json = Repro_telemetry.Json

let read_json ~ctx path =
  match Json.parse_file path with
  | Ok json -> json
  | Error e -> die "apexctl %s: %s" ctx e

(* `bench-diff A.json B.json` compares per-dataset q1/q2/q3 result
   checksums between two `bench --json` outputs and exits 1 on any drift —
   the CI guard that representation changes (codecs, join kernels) never
   change answers. *)
let cmd_bench_diff base other =
  let module E = Repro_harness.Experiments in
  match
    E.diff_checksums ~base:(read_json ~ctx:"bench-diff" base)
      ~other:(read_json ~ctx:"bench-diff" other)
  with
  | Error e -> die "apexctl bench-diff: %s vs %s: %s" base other e
  | Ok (common, []) -> Printf.printf "bench checksums match: %s\n" (String.concat ", " common)
  | Ok (_, mismatches) ->
    let show = Option.value ~default:"(absent)" in
    List.iter
      (fun (m : E.checksum_mismatch) ->
        Printf.printf "%s %s: checksum %s <> %s\n" m.dataset m.qtype (show m.base_checksum)
          (show m.other_checksum))
      mismatches;
    Printf.printf "%d checksum mismatch(es)\n" (List.length mismatches);
    exit 1

(* `drift-check BENCH_DRIFT.json` validates a drift-bench report: on every
   phase the cost-benefit policy must converge in fewer refreshes than
   support-only mining AND to a smaller index, hold a stable tail of at
   least two refreshes with zero promotion/eviction state changes, and
   stay under the committed refreshes-to-convergence bound — the CI guard
   that a policy change doesn't quietly reintroduce threshold-flapping.
   Exit 1 on any regression. *)

let cmd_drift_check report max_rtc =
  let json = read_json ~ctx:"drift-check" report in
  let failures = ref 0 in
  let complain fmt =
    Printf.ksprintf (fun m -> incr failures; Printf.printf "FAIL %s\n" m) fmt
  in
  let phases side =
    match Option.bind (Json.member side json) (Json.member "phases") with
    | Some (Json.Arr l) -> l
    | _ -> die "apexctl drift-check: %s: no %s.phases array" report side
  in
  let num field ph =
    match Option.bind (Json.member field ph) Json.to_float with
    | Some f -> f
    | None -> die "apexctl drift-check: %s: phase missing %s" report field
  in
  let name ph =
    match Option.bind (Json.member "name" ph) Json.to_str with
    | Some s -> s
    | None -> die "apexctl drift-check: %s: unnamed phase" report
  in
  let support = phases "support" and policy = phases "policy" in
  if List.length support <> List.length policy then
    die "apexctl drift-check: %s: %d support phases vs %d policy phases" report
      (List.length support) (List.length policy);
  List.iter2
    (fun s p ->
      let ph = name p in
      if name s <> ph then
        die "apexctl drift-check: %s: phase order mismatch (%s vs %s)" report
          (name s) ph;
      let s_rtc = num "refreshes_to_convergence" s
      and p_rtc = num "refreshes_to_convergence" p in
      if not (p_rtc < s_rtc) then
        complain "%s: policy converged in %.0f refreshes, support-only in %.0f"
          ph p_rtc s_rtc;
      if p_rtc > float_of_int max_rtc then
        complain "%s: policy took %.0f refreshes to converge (bound %d)" ph
          p_rtc max_rtc;
      let s_pages = num "index_pages" s and p_pages = num "index_pages" p in
      if not (p_pages < s_pages) then
        complain "%s: policy index %.0f pages not smaller than support-only %.0f"
          ph p_pages s_pages;
      let tail = num "stable_tail" p in
      if tail < 2. then
        complain "%s: policy stable tail %.0f refreshes (need >= 2)" ph tail;
      let checksum ph =
        match Option.bind (Json.member "checksum" ph) Json.to_str with
        | Some c -> c
        | None -> die "apexctl drift-check: %s: phase checksum is not a hex string" report
      in
      if checksum s <> checksum p then
        complain "%s: support and policy result checksums differ" ph)
    support policy;
  (match Json.member "invariants" json with
   | Some (Json.Obj fields) ->
     List.iter
       (fun (k, v) -> if v <> Json.Bool true then complain "invariant %s" k)
       fields
   | _ -> complain "missing invariants object");
  if !failures > 0 then begin
    Printf.printf "%d drift regression(s) in %s\n" !failures report;
    exit 1
  end
  else
    Printf.printf "drift report OK: %d phases, policy converges faster and smaller\n"
      (List.length policy)

(* `serve` runs the multi-client epoch-isolation driver on a generated
   dataset: N reader domains against a live writer applying update batches
   and refreshes, every observation differentially verified against the
   single-threaded oracle at its pinned generation. Exit 1 on any reader
   error, stall, or oracle mismatch. With --obs PREFIX the observability
   layer comes on (SLO monitor, latency watchdog, auto incident dumps)
   and the run ends by writing PREFIX.incident.json (forced flight dump),
   PREFIX.prom (exposition), and PREFIX.status.json (introspection — the
   document `apexctl top` renders). *)
let cmd_serve dataset scale readers queries batches seed out obs slo_spec watchdog =
  let spec =
    match Repro_datagen.Dataset.by_name dataset with
    | Some spec -> Repro_datagen.Dataset.scaled spec scale
    | None -> die "apexctl serve: unknown dataset %s" dataset
  in
  let module Driver = Repro_server.Driver in
  let module Server = Repro_server.Server in
  let module Slo = Repro_telemetry.Slo in
  let config =
    { Driver.default_config with Driver.readers; queries_per_reader = queries; batches; seed }
  in
  let config =
    match obs with
    | None -> config
    | Some prefix ->
      let slo =
        match slo_spec with
        | None -> Slo.default_objectives
        | Some spec ->
          (match Slo.parse_objectives spec with
           | Ok objectives -> objectives
           | Error e -> die "apexctl serve: --slo: %s" e)
      in
      { config with
        Driver.slo;
        watchdog = Some watchdog;
        incident_path = Some (prefix ^ ".incident.json")
      }
  in
  let g = Repro_datagen.Dataset.build_graph spec in
  let report = Driver.run ~config g in
  let mismatches = Driver.verify_observations report in
  let json = Driver.report_json ~dataset:spec.Repro_datagen.Dataset.name
      ~checksum_mismatches:mismatches report
  in
  (match out with
   | "-" -> print_string json
   | file ->
     Out_channel.with_open_text file (fun oc -> output_string oc json);
     Printf.printf "%d queries on %d readers across %d publishes, %d mismatches -> %s\n"
       (Driver.total_queries report) readers report.Driver.publishes mismatches file;
     Array.iteri
       (fun i h ->
         let q p = Repro_telemetry.Metrics.Histogram.quantile h p *. 1e6 in
         Printf.printf "  q%d: %d queries, p50 %.1f us, p99 %.1f us\n" (i + 1)
           (Repro_telemetry.Metrics.Histogram.count h) (q 0.5) (q 0.99))
       (Driver.merged_qtype_latencies report));
  (match obs with
   | None -> ()
   | Some prefix ->
     let server = report.Driver.server in
     Server.incident_dump ~reason:"apexctl serve: forced dump" server
       (prefix ^ ".incident.json");
     Repro_telemetry.Export.save_exposition (prefix ^ ".prom") (Server.metrics server);
     Out_channel.with_open_text (prefix ^ ".status.json") (fun oc ->
         output_string oc (Json.to_string (Server.introspect server));
         output_char oc '\n');
     Printf.printf "wrote %s.incident.json, %s.prom, %s.status.json\n" prefix prefix
       prefix);
  if Driver.total_errors report > 0 || Driver.stalled_readers report > 0 || mismatches > 0
  then exit 1

(* --- top: terminal dashboard over the introspection document --- *)

let jget path json =
  List.fold_left (fun acc key -> Option.bind acc (Json.member key)) (Some json) path

let jnum path json = Option.bind (jget path json) Json.to_float
let jstr path json = Option.bind (jget path json) Json.to_str
let jarr path json = match jget path json with Some (Json.Arr l) -> l | _ -> []

let jint path json =
  match jnum path json with Some f -> Printf.sprintf "%.0f" f | None -> "-"

let pp_seconds = function
  | None -> "-"
  | Some s -> Export.pp_duration s

(* One frame of the dashboard: server counters, every live epoch with its
   pin count and age, per-generation attribution, SLO status, policy
   hysteresis state, and the trace rings' flight-recorder counters. *)
let render_top json =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "apex server  generation %s  publishes %s  rollbacks %s  incidents %s\n"
    (jint [ "server"; "generation" ] json)
    (jint [ "server"; "publishes" ] json)
    (jint [ "server"; "rollbacks" ] json)
    (jint [ "server"; "incidents" ] json);
  add "feedback     drained %s  dropped %s  attributed %s\n\n"
    (jint [ "server"; "feedback_drained" ] json)
    (jint [ "server"; "feedback_dropped" ] json)
    (jint [ "server"; "observed_queries" ] json);
  add "EPOCHS     gen  state      pins      age\n";
  List.iter
    (fun e ->
      add "        %6s  %-8s %5s %8s\n" (jint [ "generation" ] e)
        (Option.value (jstr [ "state" ] e) ~default:"-")
        (jint [ "pins" ] e)
        (match jnum [ "age_seconds" ] e with
         | Some a -> Printf.sprintf "%.1fs" a
         | None -> "-"))
    (jarr [ "epochs" ] json);
  let attribution = jarr [ "attribution" ] json in
  if attribution <> [] then begin
    add "\nBY EPOCH   gen  queries    pages    edges    joins      p50      p99\n";
    List.iter
      (fun a ->
        add "        %6s %8s %8s %8s %8s %8s %8s\n" (jint [ "generation" ] a)
          (jint [ "queries" ] a)
          (jint [ "extent_pages" ] a)
          (jint [ "extent_edges" ] a)
          (jint [ "join_edges" ] a)
          (pp_seconds (jnum [ "latency"; "p50" ] a))
          (pp_seconds (jnum [ "latency"; "p99" ] a)))
      attribution
  end;
  (match jarr [ "slo"; "objectives" ] json with
   | [] -> add "\nSLO        (not configured)\n"
   | objectives ->
     add "\nSLO        name   target  threshold  samples  estimate     burn  breaches\n";
     List.iter
       (fun o ->
         add "        %6s  %7s %10s %8s %9s %8s %9s%s\n"
           (Option.value (jstr [ "name" ] o) ~default:"-")
           (match jnum [ "quantile" ] o with
            | Some q -> Printf.sprintf "p%g" (q *. 100.)
            | None -> "-")
           (pp_seconds (jnum [ "threshold" ] o))
           (jint [ "samples" ] o)
           (pp_seconds (jnum [ "estimate" ] o))
           (match jnum [ "burn_rate" ] o with
            | Some r -> Printf.sprintf "%.2f" r
            | None -> "-")
           (jint [ "breaches" ] o)
           (if jget [ "breached" ] o = Some (Json.Bool true) then "  BREACHED" else ""))
       objectives);
  (match jget [ "policy" ] json with
   | Some (Json.Obj _ as p) ->
     add "\nPOLICY     queries %.1f  tracked %s  indexed %s  refreshes %s  +%s/-%s (last %s)\n"
       (Option.value (jnum [ "observed_queries" ] p) ~default:0.)
       (jint [ "tracked_paths" ] p) (jint [ "indexed_paths" ] p)
       (jint [ "refreshes" ] p) (jint [ "promotions" ] p) (jint [ "evictions" ] p)
       (jint [ "last_changes" ] p)
   | _ -> add "\nPOLICY     (support-only mining)\n");
  add "\nFLIGHT     recorded %s  retained %s  trips %s  dumps %s\n"
    (jint [ "flight"; "recorded" ] json)
    (jint [ "flight"; "retained" ] json)
    (jint [ "flight"; "trips" ] json)
    (jint [ "flight"; "dumps" ] json);
  Buffer.contents b

let cmd_top file interval once =
  let frame () =
    render_top (read_json ~ctx:"top" file)
  in
  if once then print_string (frame ())
  else begin
    (* poll the status file a live serve run keeps rewriting; ^C exits *)
    let rec loop () =
      let body = frame () in
      Printf.printf "\027[2J\027[H%s\n(polling %s every %.1fs — ^C to quit)\n%!" body
        file interval;
      Unix.sleepf interval;
      loop ()
    in
    loop ()
  end

(* --- incident-dump: validate + summarize a flight-recorder dump --- *)

let cmd_incident_dump file schema =
  let json = read_json ~ctx:"incident-dump" file in
  (match schema with
   | None -> ()
   | Some schema_path ->
     (match Repro_telemetry.Flight.validate_file ~schema_path file with
      | Ok () -> Printf.printf "%s: conforms to %s\n" file schema_path
      | Error errors ->
        Printf.printf "%s: %d schema violation(s)\n" file (List.length errors);
        List.iteri (fun i e -> if i < 20 then Printf.printf "  %s\n" e) errors;
        exit 1));
  Printf.printf "incident: %s (after %ss up; %s events recorded, %s retained, %s trips)\n"
    (Option.value (jstr [ "incident"; "reason" ] json) ~default:"?")
    (jint [ "incident"; "uptime_seconds" ] json)
    (jint [ "incident"; "recorded" ] json)
    (jint [ "incident"; "retained" ] json)
    (jint [ "incident"; "watchdog_trips" ] json);
  (* events by kind, then the largest metric movements since baseline *)
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match jstr [ "kind" ] e with
      | Some k ->
        Hashtbl.replace by_kind k (1 + Option.value (Hashtbl.find_opt by_kind k) ~default:0)
      | None -> ())
    (jarr [ "events" ] json);
  let kinds = Hashtbl.fold (fun k n acc -> (k, n) :: acc) by_kind [] in
  List.iter
    (fun (k, n) -> Printf.printf "  %-14s %6d\n" k n)
    (List.sort (fun (_, a) (_, b) -> Int.compare b a) kinds);
  let deltas =
    List.filter_map
      (fun m ->
        match (jstr [ "name" ] m, jnum [ "delta" ] m) with
        | Some name, Some d when not (Float.equal d 0.) -> Some (name, d)
        | _ -> None)
      (jarr [ "metrics" ] json)
  in
  let spans = List.length (jarr [ "spans" ] json) in
  if spans > 0 then Printf.printf "  %d trace spans attached\n" spans;
  if deltas <> [] then begin
    Printf.printf "top metric movements since baseline:\n";
    List.iteri
      (fun i (name, d) ->
        if i < 12 then Printf.printf "  %-40s %+.0f\n" name d)
      (List.sort (fun (_, a) (_, b) -> Float.compare (Float.abs b) (Float.abs a)) deltas)
  end

(* `lint-report` runs the same analysis as `dune build @lint` but emits
   the machine-readable report. Must run from the workspace root with a
   built tree (the .cmt files drive the mutability map): CI does
   `dune build @check` first. Exit codes follow Lint_engine.run_report:
   0 clean, 1 on any non-suppressed L8/L9 finding, 2 on schema or
   analysis errors. *)
let cmd_lint_report build_dir schema out _json roots =
  let roots = if roots = [] then [ "lib"; "bin"; "bench" ] else roots in
  exit
    (Apex_lint_core.Lint_engine.run_report ~build_dir ?schema_path:schema ~out roots)

open Cmdliner

let stats_cmd =
  let trace_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.jsonl")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Aggregate a JSONL trace into per-phase latency percentiles and \
          adaptation-event totals.")
    Term.(const cmd_stats $ trace_file)

let validate_cmd =
  let schema =
    Arg.(
      required
      & opt (some file) None
      & info [ "schema" ] ~docv:"SCHEMA.json"
          ~doc:"Trace schema to validate against (see schemas/trace_schema.json).")
  in
  let traces =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"TRACE"
          ~doc:
            "Trace files: *.jsonl are checked as JSONL event logs, anything else \
             as Chrome trace_event JSON.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Validate exported traces against the checked-in schema; exit 1 on violation.")
    Term.(const cmd_validate $ schema $ traces)

let bench_diff_cmd =
  let base =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE.json")
  in
  let other =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE.json")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare per-dataset query checksums between two `bench --json` outputs; \
          exit 1 if any differ.")
    Term.(const cmd_bench_diff $ base $ other)

let drift_check_cmd =
  let report =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BENCH_DRIFT.json")
  in
  let max_rtc =
    Arg.(
      value & opt int 8
      & info [ "max-rtc" ] ~docv:"N"
          ~doc:
            "Upper bound on the policy's refreshes-to-convergence in any \
             phase (the committed baseline converges in at most 7).")
  in
  Cmd.v
    (Cmd.info "drift-check"
       ~doc:
         "Validate a `bench drift` report: the cost-benefit policy must \
          converge faster than support-only mining, to a smaller index, with \
          a stable post-convergence tail, on every phase; exit 1 on any \
          regression.")
    Term.(const cmd_drift_check $ report $ max_rtc)

let serve_cmd =
  let dataset =
    Arg.(
      value & opt string "four_tragedy"
      & info [ "dataset" ] ~docv:"NAME" ~doc:"Dataset to serve (see Table 1 names).")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"F" ~doc:"Dataset node-target factor.")
  in
  let readers =
    Arg.(value & opt int 3 & info [ "readers" ] ~docv:"N" ~doc:"Reader domains to spawn.")
  in
  let queries =
    Arg.(
      value & opt int 60
      & info [ "queries" ] ~docv:"N" ~doc:"Queries per reader stream (readers loop over it).")
  in
  let batches =
    Arg.(value & opt int 8 & info [ "batches" ] ~docv:"N" ~doc:"Writer update batches.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let out =
    Arg.(
      value
      & opt string "BENCH_SERVE.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the serve report to $(docv) ($(b,-) for standard output).")
  in
  let obs =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs" ] ~docv:"PREFIX"
          ~doc:
            "Run with the observability layer on (SLO monitor, latency watchdog, auto \
             incident dumps) and write $(docv).incident.json, $(docv).prom, and \
             $(docv).status.json.")
  in
  let slo =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "SLO objectives as name:pQQ:threshold_seconds specs joined by commas \
             (with --obs; default q1/q2/q3 at p99 <= 50ms).")
  in
  let watchdog =
    Arg.(
      value & opt float 0.25
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:"Latency watchdog threshold for the flight recorder (with --obs).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent query server under a mixed read/write workload — reader \
          domains with epoch-snapshot isolation against a live writer — and write the \
          latency/lifecycle report; every reader observation is verified against the \
          single-threaded oracle at its pinned generation (exit 1 on any mismatch, \
          error, or stall).")
    Term.(
      const cmd_serve $ dataset $ scale $ readers $ queries $ batches $ seed $ out $ obs
      $ slo $ watchdog)

let top_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"STATUS.json")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between polls of the status file.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Render a single frame and exit (no screen clearing).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Terminal dashboard over a server introspection document (the .status.json a \
          serve run with --obs writes): live epochs with pin counts, per-generation \
          attribution, SLO status, policy hysteresis state, and the flight recorder.")
    Term.(const cmd_top $ file $ interval $ once)

let incident_dump_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INCIDENT.json")
  in
  let schema =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"SCHEMA.json"
          ~doc:
            "Validate the incident file against this contract first (see \
             schemas/incident_schema.json); exit 1 on violation.")
  in
  Cmd.v
    (Cmd.info "incident-dump"
       ~doc:
         "Validate and summarize a flight-recorder incident file: reason, uptime, \
          events by kind, and the largest metric movements since the baseline.")
    Term.(const cmd_incident_dump $ file $ schema)

let lint_report_cmd =
  let build_dir =
    Arg.(
      value
      & opt string "_build/default"
      & info [ "build-dir" ] ~docv:"DIR"
          ~doc:"Dune context root holding the .cmt files of a completed build.")
  in
  let schema =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"SCHEMA.json"
          ~doc:
            "Validate the emitted report against this mini-contract schema \
             (see schemas/lint_report_schema.json); exit 2 on violation.")
  in
  let out =
    Arg.(
      value
      & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the JSON report to $(docv) instead of standard output.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Accepted for symmetry with other subcommands; the report is \
             always JSON.")
  in
  let roots =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ROOT" ~doc:"Source roots to lint (default: lib bin bench).")
  in
  Cmd.v
    (Cmd.info "lint-report"
       ~doc:
         "Run the whole-program domain-safety analysis and emit the mutability \
          map, L1-L9 findings, classified mutation sites, and global-state \
          inventory as schema-validated JSON.")
    Term.(const cmd_lint_report $ build_dir $ schema $ out $ json $ roots)

let cmd =
  Cmd.group
    (Cmd.info "apexctl" ~doc:"Telemetry introspection for the APEX reproduction")
    [ stats_cmd; validate_cmd; bench_diff_cmd; drift_check_cmd; serve_cmd; top_cmd;
      incident_dump_cmd; lint_report_cmd ]

let () = exit (Cmd.eval cmd)
