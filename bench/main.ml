(* Benchmark driver: regenerates every evaluation artifact of the paper
   (Tables 1-2, Figures 13-15) plus our ablations, and offers bechamel
   micro-benchmarks of the core operations.

   With no arguments it runs the whole experiment grid on all nine datasets
   at their Table 1 sizes with moderate query counts; `--full` switches to
   the paper's query counts (5000/500/1000), `--quick` to a 1/10-scale
   three-dataset smoke run. *)

module Experiments = Repro_harness.Experiments
module Dataset = Repro_datagen.Dataset
module Trace = Repro_telemetry.Trace
module Export = Repro_telemetry.Export

let standard =
  { Experiments.default with
    (* full-size data, moderate query batches so the grid completes in
       minutes; --full restores the paper's counts *)
    n_q1 = 500;
    n_q2 = 50;
    n_q3 = 100
  }

let resolve_config ~quick ~full ~scale ~datasets ~no_verify =
  let base =
    if quick then Experiments.quick
    else if full then Experiments.default
    else standard
  in
  let base = match scale with Some s -> { base with Experiments.scale = s } | None -> base in
  let base =
    match datasets with
    | [] -> base
    | names ->
      let specs =
        List.map
          (fun n ->
            match Dataset.by_name n with
            | Some s -> s
            | None -> failwith (Printf.sprintf "unknown dataset %s" n))
          names
      in
      { base with Experiments.datasets = specs }
  in
  if no_verify then { base with Experiments.verify = false } else base

let run_experiment ?json ?obs name config =
  match (name, json) with
  (* these three print their tables and write a report only with --json *)
  | "updates", _ -> Experiments.updates config ~out:json
  | "serve", _ -> Serve.run ?obs config ~out:json
  | "drift", _ -> Drift_bench.run config ~out:json
  | _, Some out -> Experiments.json_bench config ~out
  | _, None ->
  match name with
  | "all" -> Experiments.run_all config
  | "table1" -> ignore (Experiments.table1 (Experiments.create_context config))
  | "table2" -> ignore (Experiments.table2 (Experiments.create_context config))
  | "fig13" -> ignore (Experiments.fig13 (Experiments.create_context config))
  | "fig14" -> ignore (Experiments.fig14 (Experiments.create_context config))
  | "fig15" -> ignore (Experiments.fig15 (Experiments.create_context config))
  | "ablation" -> Experiments.ablation (Experiments.create_context config)
  | "faults" -> Experiments.fault_smoke config
  | "micro" -> Micro.run ()
  | other -> failwith (Printf.sprintf "unknown experiment %s" other)

open Cmdliner

let experiment =
  let doc =
    "Experiment to run: all, table1, table2, fig13, fig14, fig15, ablation, updates, serve, \
     drift, faults, or micro."
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"1/10-scale smoke run on one dataset per family.")

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale query counts (5000/500/1000).")

let scale =
  Arg.(value & opt (some float) None & info [ "scale" ] ~doc:"Dataset node-target factor.")

let datasets =
  Arg.(
    value
    & opt (list string) []
    & info [ "datasets" ] ~doc:"Comma-separated dataset names (default: all nine).")

let no_verify =
  Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip result verification against the naive evaluator.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Instead of the table experiments, write a machine-readable benchmark report \
           (build time, Q1/Q2/Q3 latency, result checksums, cache hit rates) to $(docv). \
           The updates, serve and drift experiments write their own report to $(docv), and \
           without this option only print.")

let obs =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs" ] ~docv:"PREFIX"
        ~doc:
          "(serve only) Run with the observability layer on — SLO monitor (q1/q2/q3 at \
           p99 <= 50ms) with a 0.25s latency watchdog, auto incident dumps — and write \
           $(docv).incident.json (the server-state document with its metrics \
           registry and the retained operational records, dumped at the end of the \
           run).")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PREFIX"
        ~doc:
          "Record query-phase spans and adaptation events while the experiment runs, then \
           write $(docv).trace.json (Chrome trace_event format — load into \
           chrome://tracing or ui.perfetto.dev) and print per-phase latency percentiles.")

(* large enough that a full nine-dataset sweep keeps every span *)
let trace_capacity = 1 lsl 18

(* The phase table is read back from the trace file just written, the same
   path as `apexctl stats`: it covers the retained records, and the header
   says how many the rings lost. *)
let finish_trace prefix =
  Trace.disable ();
  let chrome = prefix ^ ".trace.json" in
  Export.save_chrome chrome;
  let st = Trace.stats () in
  Printf.printf "\n== trace: %d spans/events recorded (%d retained, %d lost to ring wrap)\n"
    st.Trace.recorded st.Trace.retained st.Trace.overwritten;
  let phases =
    match Export.read_trace chrome with
    | Ok records -> Export.percentile_table (Export.summarize records)
    | Error e -> Printf.sprintf "cannot read %s back: %s\n" chrome e
  in
  Printf.printf "wrote %s\n\n%s" chrome phases;
  let events =
    List.filter_map
      (fun (k, n) -> if Trace.kind_is_event k then Some (Trace.kind_name k, n) else None)
      (Trace.kind_counts ())
  in
  if events <> [] then
    Printf.printf "\ninstant events:\n%s" (Export.event_table events)

let cmd =
  let run experiment quick full scale datasets no_verify json obs trace =
    let config = resolve_config ~quick ~full ~scale ~datasets ~no_verify in
    match trace with
    | None -> run_experiment ?json ?obs experiment config
    | Some prefix ->
      Trace.enable ~capacity:trace_capacity ();
      Fun.protect
        ~finally:(fun () -> finish_trace prefix)
        (fun () -> run_experiment ?json ?obs experiment config)
  in
  Cmd.v
    (Cmd.info "apex-bench" ~doc:"APEX reproduction benchmarks")
    Term.(
      const run $ experiment $ quick $ full $ scale $ datasets $ no_verify $ json $ obs $ trace)

let () = exit (Cmd.eval cmd)
