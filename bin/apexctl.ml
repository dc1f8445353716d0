(* apexctl: the command-line front end of the APEX reproduction.

   Data and index commands:

     apexctl generate -d Flix01 -o flix.xml       # synthesize a dataset
     apexctl graph-stats -d Ged01                  # Table 1 characteristics
     apexctl indexes -d Ged01 --minsup 0.005       # Table 2 index sizes
     apexctl query -d Flix01 -q '//movie/title' --index apex
     apexctl xpath -d Flix01 -q '//movie[video]/title' --explain
     apexctl workload -d Flix01 -n 20              # sample generated queries
     apexctl validate-xml -f plays.xml             # DTD validation

   Datasets are the nine named specs of Table 1 (four_tragedy, shakes_11,
   shakes_all, Flix01-03, Ged01-03); --scale shrinks them. Alternatively
   -f FILE.xml loads any XML document (with --idref naming the IDREF-typed
   attributes).

   Telemetry, report and static-analysis commands:

     apexctl stats run.trace.json                 # per-phase latency percentiles
     apexctl validate --schema schemas/trace_schema.json \
         run.trace.json                           # audit an exported trace
     apexctl lint-report \
         --schema schemas/lint_report_schema.json # domain-safety report

   `bench --trace PREFIX` produces the trace input, a Chrome trace_event
   file; `stats` aggregates it into per-phase latency histograms and
   adaptation-event totals, and `validate` checks any file as a whole
   document against a checked-in schema (field presence, JSON types,
   legal record kinds). `bench serve --obs PREFIX` produces the input of
   `incident-dump`. `lint-report` runs the whole-program domain-safety
   analysis (tools/lint) and emits the mutability map, findings, and
   guarded-mutation inventory as schema-validated JSON for CI to diff
   across PRs. *)

module Export = Repro_telemetry.Export

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let cmd_stats path =
  match Export.read_trace path with
  | Error e -> die "apexctl stats: %s" e
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
  let failed = ref false in
  List.iter
    (fun path ->
      match Repro_telemetry.Schema.validate_file ~schema_path path with
      | Ok () -> Printf.printf "%s: OK\n" path
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

(* --- data and index commands --- *)

module Dataset = Repro_datagen.Dataset
module G = Repro_graph.Data_graph
module Apex = Repro_apex.Apex
module Query = Repro_pathexpr.Query

let read_file path =
  match Json.read_file path with Ok text -> text | Error e -> die "apexctl: %s" e

let load_graph ~dataset ~file ~idref ~scale =
  match dataset, file with
  | Some name, None ->
    (match Dataset.by_name name with
     | Some spec -> Dataset.build_graph (Dataset.scaled spec scale)
     | None ->
       die "unknown dataset %S (try: %s)" name
         (String.concat ", " (List.map (fun s -> s.Dataset.name) Dataset.all)))
  | None, Some path ->
    let doc, subset = Repro_xml.Xml_parser.parse_string_full (read_file path) in
    (match subset, idref with
     | Some text, [] ->
       (* ID/IDREF typing straight from the document's own DTD *)
       (match Repro_xml.Dtd.parse text with
        | Ok dtd -> G.of_document_dtd dtd doc
        | Error m -> die "DTD parse error in %s: %s" path m)
     | _, idref -> G.of_document ~idref_attrs:idref doc)
  | _ -> die "specify exactly one of -d DATASET or -f FILE"

let cmd_generate dataset output scale =
  match Dataset.by_name dataset with
  | None -> die "unknown dataset %S" dataset
  | Some spec ->
    let doc = Dataset.generate_document (Dataset.scaled spec scale) in
    let dtd = Dataset.dtd_text spec.Dataset.family in
    (match output with
     | Some path ->
       Repro_xml.Xml_print.to_file ~dtd path doc;
       Printf.printf "wrote %s (with internal DTD)\n" path
     | None -> print_string (Repro_xml.Xml_print.to_string ~dtd doc))

let cmd_graph_stats dataset file idref scale =
  let g = load_graph ~dataset ~file ~idref ~scale in
  let s = Repro_graph.Graph_stats.compute g in
  Printf.printf "nodes   %d\nedges   %d\nlabels  %d (%d IDREF-typed)\n"
    s.Repro_graph.Graph_stats.nodes s.Repro_graph.Graph_stats.edges
    s.Repro_graph.Graph_stats.labels s.Repro_graph.Graph_stats.idref_labels

let cmd_indexes dataset file idref scale minsup n_workload =
  let g = load_graph ~dataset ~file ~idref ~scale in
  let apex0 = Apex.build g in
  let n0, e0 = Apex.stats apex0 in
  Printf.printf "APEX0       %6d nodes %6d edges\n" n0 e0;
  let rand = Random.State.make [| 4242 |] in
  let q1 = Repro_workload.Generate.qtype1 ~n:n_workload rand g in
  let workload = Repro_harness.Env.compile_workload g q1 in
  Apex.refresh apex0 ~workload ~min_support:minsup;
  let n, e = Apex.stats apex0 in
  Printf.printf "APEX(%.3g) %6d nodes %6d edges  (workload: %d queries)\n" minsup n e
    (List.length workload);
  (match Repro_baselines.Dataguide.build g with
   | dg ->
     let n, e = Repro_baselines.Summary_index.stats dg in
     Printf.printf "DataGuide   %6d nodes %6d edges\n" n e
   | exception Failure _ -> Printf.printf "DataGuide   (state explosion)\n");
  let oi = Repro_baselines.One_index.build g in
  let n, e = Repro_baselines.Summary_index.stats oi in
  Printf.printf "1-index     %6d nodes %6d edges\n" n e;
  let fab = Repro_baselines.Index_fabric.build g in
  Printf.printf "Fabric      %6d keys  %6d trie nodes %5d blocks\n"
    (Repro_baselines.Index_fabric.n_keys fab)
    (Repro_baselines.Index_fabric.n_trie_nodes fab)
    (Repro_baselines.Index_fabric.n_blocks fab)

let cmd_query dataset file idref scale query_text index minsup =
  let g = load_graph ~dataset ~file ~idref ~scale in
  let q =
    match Query.parse query_text with
    | Ok q -> q
    | Error m -> die "query parse error: %s" m
  in
  let cost = Repro_storage.Cost.create () in
  let result =
    match index with
    | "naive" -> Repro_pathexpr.Naive_eval.eval_query g q
    | "apex" | "apex0" ->
      let apex = Apex.build g in
      if String.equal index "apex" then begin
        let rand = Random.State.make [| 4242 |] in
        let q1 = Repro_workload.Generate.qtype1 ~n:500 rand g in
        Apex.refresh apex ~workload:(Repro_harness.Env.compile_workload g q1)
          ~min_support:minsup
      end;
      Repro_apex.Apex_query.eval_query ~cost apex q
    | "sdg" -> Repro_baselines.Summary_index.eval_query ~cost (Repro_baselines.Dataguide.build g) q
    | "1index" ->
      Repro_baselines.Summary_index.eval_query ~cost (Repro_baselines.One_index.build g) q
    | other -> die "unknown index %S (apex, apex0, sdg, 1index, naive)" other
  in
  Printf.printf "%d result(s)\n" (Array.length result);
  Array.iteri (fun i nid -> if i < 20 then Printf.printf "  nid %d\n" nid) result;
  if Array.length result > 20 then Printf.printf "  ... (%d more)\n" (Array.length result - 20);
  if not (String.equal index "naive") then
    Printf.printf "cost: %s\n" (Format.asprintf "%a" Repro_storage.Cost.pp cost)

let cmd_xpath dataset file idref scale path_text minsup show_xml explain =
  let g = load_graph ~dataset ~file ~idref ~scale in
  let path =
    match Repro_xpath.Xpath_parser.parse path_text with
    | Ok p -> p
    | Error m -> die "xpath parse error: %s" m
  in
  let apex = Apex.build g in
  let rand = Random.State.make [| 4242 |] in
  let q1 = Repro_workload.Generate.qtype1 ~n:500 rand g in
  Apex.refresh apex ~workload:(Repro_harness.Env.compile_workload g q1) ~min_support:minsup;
  if explain then
    Printf.printf "plan: %s\n" (Repro_xpath.Xpath_plan.describe (Repro_xpath.Xpath_plan.plan g path));
  let cost = Repro_storage.Cost.create () in
  let result = Repro_xpath.Xpath_plan.execute ~cost apex path in
  Printf.printf "%d result(s)\n" (Array.length result);
  Array.iteri
    (fun i nid ->
      if i < 10 then
        if show_xml then print_endline (Repro_graph.Subtree.to_xml_string g nid)
        else Printf.printf "  nid %d\n" nid)
    result;
  if Array.length result > 10 then Printf.printf "  ... (%d more)\n" (Array.length result - 10);
  Printf.printf "cost: %s\n" (Format.asprintf "%a" Repro_storage.Cost.pp cost)

let cmd_validate_xml file dtd_file =
  let text = read_file file in
  let doc, subset = Repro_xml.Xml_parser.parse_string_full text in
  let dtd_text =
    match dtd_file, subset with
    | Some path, _ -> read_file path
    | None, Some s -> s
    | None, None -> die "no DTD: the file has no internal subset and no --dtd was given"
  in
  match Repro_xml.Dtd.parse dtd_text with
  | Error m -> die "DTD parse error: %s" m
  | Ok dtd ->
    (match Repro_xml.Dtd.validate dtd doc with
     | [] -> print_endline "valid"
     | violations ->
       List.iteri
         (fun i v ->
           if i < 25 then Printf.printf "%s: %s\n" v.Repro_xml.Dtd.path v.Repro_xml.Dtd.message)
         violations;
       if List.length violations > 25 then
         Printf.printf "... (%d more)\n" (List.length violations - 25);
       exit 1)

let cmd_workload dataset file idref scale n qtype =
  let g = load_graph ~dataset ~file ~idref ~scale in
  let rand = Random.State.make [| 4242 |] in
  let queries =
    match qtype with
    | 1 -> Repro_workload.Generate.qtype1 ~n rand g
    | 2 -> Repro_workload.Generate.qtype2 ~n rand g
    | 3 -> Repro_workload.Generate.qtype3 ~n rand g
    | _ -> die "--qtype must be 1, 2 or 3"
  in
  Array.iter (fun q -> print_endline (Query.to_string q)) queries

(* --- benchmark report checks --- *)


let read_json ~ctx path =
  match Json.parse_file path with
  | Ok json -> json
  | Error e -> die "apexctl %s: %s" ctx e

(* `bench-diff BENCH_TRAJECTORY.json REPORT.json` checks a fresh `bench`,
   `updates` or `drift` report against the newest committed entry of its
   experiment: every checksum and deterministic counter must be equal, so
   a representation change (codecs, join kernels, policy arithmetic) never
   moves an answer or a logical cost unnoticed. Exit 1 on any difference. *)
let cmd_bench_diff trajectory report =
  match
    Repro_harness.Experiments.bench_diff
      ~trajectory:(read_json ~ctx:"bench-diff" trajectory)
      (read_json ~ctx:"bench-diff" report)
  with
  | Ok summary -> print_endline summary
  | Error diffs ->
    List.iter print_endline diffs;
    Printf.printf "%s: %d difference(s) from %s\n" report (List.length diffs) trajectory;
    exit 1

(* `drift-check REPORT.json` validates a fresh drift-bench report: on every
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

(* --- incident-dump: the server-state frame and event mix of an incident file --- *)

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

(* One frame of the server-state document: server counters, every live
   epoch with its pin count and age, per-generation attribution, SLO and
   watchdog status, policy hysteresis state, and the trace rings' counters. *)
let render_frame json =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "apex server  generation %s  publishes %s  rollbacks %s  incidents %s  up %s\n"
    (jint [ "server"; "generation" ] json)
    (jint [ "server"; "publishes" ] json)
    (jint [ "server"; "rollbacks" ] json)
    (jint [ "server"; "incidents" ] json)
    (pp_seconds (jnum [ "server"; "uptime_seconds" ] json));
  add "feedback     drained %s  dropped %s\n\n"
    (jint [ "server"; "feedback_drained" ] json)
    (jint [ "server"; "feedback_dropped" ] json);
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
       objectives;
     add "WATCHDOG   ceiling %s  trips %s\n"
       (pp_seconds (jnum [ "slo"; "watchdog_seconds" ] json))
       (jint [ "slo"; "watchdog_trips" ] json));
  (match jget [ "policy" ] json with
   | Some (Json.Obj _ as p) ->
     add "\nPOLICY     queries %.1f  tracked %s  indexed %s  refreshes %s  +%s/-%s (last %s)\n"
       (Option.value (jnum [ "observed_queries" ] p) ~default:0.)
       (jint [ "tracked_paths" ] p) (jint [ "indexed_paths" ] p)
       (jint [ "refreshes" ] p) (jint [ "promotions" ] p) (jint [ "evictions" ] p)
       (jint [ "last_changes" ] p)
   | _ -> add "\nPOLICY     (support-only mining)\n");
  add "\nTRACE      recorded %s  retained %s  overwritten %s\n"
    (jint [ "trace"; "recorded" ] json)
    (jint [ "trace"; "retained" ] json)
    (jint [ "trace"; "overwritten" ] json);
  Buffer.contents b

let cmd_incident_dump file schema =
  let json = read_json ~ctx:"incident-dump" file in
  (match schema with
   | None -> ()
   | Some schema_path ->
     (match Repro_telemetry.Schema.validate_file ~schema_path file with
      | Ok () -> Printf.printf "%s: conforms to %s\n" file schema_path
      | Error errors ->
        Printf.printf "%s: %d schema violation(s)\n" file (List.length errors);
        List.iteri (fun i e -> if i < 20 then Printf.printf "  %s\n" e) errors;
        exit 1));
  Printf.printf "incident: %s\n\n%s"
    (Option.value (jstr [ "reason" ] json) ~default:"?")
    (render_frame json);
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match jstr [ "name" ] e with
      | Some k ->
        Hashtbl.replace by_kind k (1 + Option.value (Hashtbl.find_opt by_kind k) ~default:0)
      | None -> ())
    (jarr [ "events" ] json);
  Printf.printf "\nEVENTS     (retained operational records)\n";
  List.iter
    (fun (k, n) -> Printf.printf "  %-18s %6d\n" k n)
    (List.sort (fun (_, a) (_, b) -> Int.compare b a)
       (Hashtbl.fold (fun k n acc -> (k, n) :: acc) by_kind []));
  let spans = List.length (jarr [ "spans" ] json) in
  if spans > 0 then Printf.printf "  %d trace spans attached\n" spans

(* `lint-report` runs the same analysis as `dune build @lint` but emits
   the machine-readable report. Must run from the workspace root with a
   built tree (the .cmt files drive the mutability map): CI does
   `dune build @check` first. Exit codes follow Lint_engine.run_report:
   0 clean, 1 on any non-suppressed L8/L9 finding, 2 on schema or
   analysis errors. *)
let cmd_lint_report build_dir schema out roots =
  let roots = if roots = [] then [ "lib"; "bin"; "bench" ] else roots in
  exit
    (Apex_lint_core.Lint_engine.run_report ~build_dir ?schema_path:schema ~out roots)

open Cmdliner

let dataset_arg =
  Arg.(value & opt (some string) None & info [ "d"; "dataset" ] ~docv:"NAME" ~doc:"Named dataset.")

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc:"XML file to load.")

let idref_arg =
  Arg.(value & opt (list string) [] & info [ "idref" ] ~doc:"IDREF-typed attribute names.")

let scale_arg = Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Dataset size factor.")
let minsup_arg = Arg.(value & opt float 0.005 & info [ "minsup" ] ~doc:"Minimum support.")

let generate_cmd =
  let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output path.") in
  let dataset = Arg.(required & opt (some string) None & info [ "d"; "dataset" ] ~docv:"NAME" ~doc:"Dataset.") in
  Cmd.v (Cmd.info "generate" ~doc:"Synthesize a dataset as XML")
    Term.(const cmd_generate $ dataset $ output $ scale_arg)

let graph_stats_cmd =
  Cmd.v (Cmd.info "graph-stats" ~doc:"Data graph characteristics (Table 1)")
    Term.(const cmd_graph_stats $ dataset_arg $ file_arg $ idref_arg $ scale_arg)

let indexes_cmd =
  let n_workload = Arg.(value & opt int 1000 & info [ "workload" ] ~doc:"Workload size.") in
  Cmd.v (Cmd.info "indexes" ~doc:"Index sizes (Table 2)")
    Term.(const cmd_indexes $ dataset_arg $ file_arg $ idref_arg $ scale_arg $ minsup_arg $ n_workload)

let query_cmd =
  let query_text = Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Path query.") in
  let index = Arg.(value & opt string "apex" & info [ "index" ] ~doc:"apex, apex0, sdg, 1index or naive.") in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a path query")
    Term.(const cmd_query $ dataset_arg $ file_arg $ idref_arg $ scale_arg $ query_text $ index $ minsup_arg)

let xpath_cmd =
  let path_text = Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"XPATH" ~doc:"XPath expression.") in
  let show_xml = Arg.(value & flag & info [ "xml" ] ~doc:"Materialize results as XML subtrees.") in
  let explain = Arg.(value & flag & info [ "explain" ] ~doc:"Print the chosen plan.") in
  Cmd.v (Cmd.info "xpath" ~doc:"Evaluate an XPath expression through the planner")
    Term.(const cmd_xpath $ dataset_arg $ file_arg $ idref_arg $ scale_arg $ path_text $ minsup_arg
          $ show_xml $ explain)

let validate_xml_cmd =
  let file = Arg.(required & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc:"XML file.") in
  let dtd_file = Arg.(value & opt (some string) None & info [ "dtd" ] ~docv:"DTD" ~doc:"External DTD file (internal-subset syntax).") in
  Cmd.v (Cmd.info "validate-xml" ~doc:"Validate a document against a DTD")
    Term.(const cmd_validate_xml $ file $ dtd_file)

let workload_cmd =
  let n = Arg.(value & opt int 20 & info [ "n" ] ~doc:"Number of queries.") in
  let qtype = Arg.(value & opt int 1 & info [ "qtype" ] ~doc:"Query class (1, 2 or 3).") in
  Cmd.v (Cmd.info "workload" ~doc:"Sample generated queries")
    Term.(const cmd_workload $ dataset_arg $ file_arg $ idref_arg $ scale_arg $ n $ qtype)

let stats_cmd =
  let trace_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.trace.json")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Aggregate a Chrome trace_event file (bench --trace) into per-phase latency \
          percentiles and adaptation-event totals.")
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
          ~doc:"Files to check, each as a whole JSON document (e.g. Chrome trace_event files).")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Validate exported traces against the checked-in schema; exit 1 on violation.")
    Term.(const cmd_validate $ schema $ traces)

let bench_diff_cmd =
  let trajectory =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BENCH_TRAJECTORY.json")
  in
  let report = Arg.(required & pos 1 (some file) None & info [] ~docv:"REPORT.json") in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Check a fresh `bench`, `bench updates` or `bench drift` report against the \
          newest trajectory entry of its experiment: every checksum and deterministic \
          counter recorded there must be equal; print each differing path and exit 1.")
    Term.(const cmd_bench_diff $ trajectory $ report)

let drift_check_cmd =
  let report =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"REPORT.json")
  in
  let max_rtc =
    Arg.(
      value & opt int 8
      & info [ "max-rtc" ] ~docv:"N"
          ~doc:
            "Upper bound on the policy's refreshes-to-convergence in any \
             phase (the drift entry of BENCH_TRAJECTORY.json converges in at most 7).")
  in
  Cmd.v
    (Cmd.info "drift-check"
       ~doc:
         "Validate a `bench drift` report: the cost-benefit policy must \
          converge faster than support-only mining, to a smaller index, with \
          a stable post-convergence tail, on every phase; exit 1 on any \
          regression.")
    Term.(const cmd_drift_check $ report $ max_rtc)

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
         "Validate and summarize an incident file (what `bench serve --obs` writes): \
          the reason, a frame of the server-state document — epochs with pin counts, \
          per-generation attribution, SLO and watchdog status, policy hysteresis state, \
          trace-ring counters — and the retained operational records by kind.")
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
    Term.(const cmd_lint_report $ build_dir $ schema $ out $ roots)

let cmd =
  Cmd.group
    (Cmd.info "apexctl" ~doc:"Command-line front end for the APEX reproduction")
    [ generate_cmd; graph_stats_cmd; indexes_cmd; query_cmd; xpath_cmd; workload_cmd;
      validate_xml_cmd; stats_cmd; validate_cmd; bench_diff_cmd; drift_check_cmd;
      incident_dump_cmd; lint_report_cmd ]

let () = exit (Cmd.eval cmd)
