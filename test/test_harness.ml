open Repro_harness
module Dataset = Repro_datagen.Dataset
module Cost = Repro_storage.Cost

let tiny_config =
  { Experiments.quick with
    Experiments.scale = 0.05;
    datasets = [ Option.get (Dataset.by_name "Flix01"); Option.get (Dataset.by_name "Ged01") ];
    n_q1 = 120;
    n_q2 = 25;
    n_q3 = 40;
    min_sups = [ 0.005; 0.05 ]
  }

(* --- Env --- *)

let test_env_prepare () =
  let env = Env.prepare ~scale:0.05 ~n_q1:50 ~n_q2:10 ~n_q3:10 (Option.get (Dataset.by_name "Flix01")) in
  Alcotest.(check int) "q1 count" 50 (Array.length env.Env.q1);
  Alcotest.(check int) "q2 count" 10 (Array.length env.Env.q2);
  Alcotest.(check int) "q3 count" 10 (Array.length env.Env.q3);
  Alcotest.(check bool) "workload is ~20% of q1" true
    (List.length env.Env.workload >= 5 && List.length env.Env.workload <= 10);
  Alcotest.(check bool) "table has values" true (Repro_storage.Data_table.n_entries env.Env.table > 0)

let test_env_deterministic () =
  let spec = Option.get (Dataset.by_name "Flix01") in
  let e1 = Env.prepare ~scale:0.05 ~n_q1:30 ~n_q2:5 ~n_q3:5 spec in
  let e2 = Env.prepare ~scale:0.05 ~n_q1:30 ~n_q2:5 ~n_q3:5 spec in
  Alcotest.(check bool) "same queries" true (e1.Env.q1 = e2.Env.q1);
  Alcotest.(check bool) "same workload" true (e1.Env.workload = e2.Env.workload)

(* --- Measure --- *)

let test_measure_run () =
  let env = Env.prepare ~scale:0.05 ~n_q1:40 ~n_q2:5 ~n_q3:5 (Option.get (Dataset.by_name "Flix01")) in
  let apex = Repro_apex.Apex.build env.Env.graph in
  let m =
    Measure.run env.Env.q1 (fun ~cost q -> Repro_apex.Apex_query.eval_query ~cost apex q)
  in
  Alcotest.(check int) "all queries ran" 40 m.Measure.queries;
  Alcotest.(check bool) "some answered" true (m.Measure.answered > 0);
  Alcotest.(check bool) "cost accumulated" true (Cost.weighted_total m.Measure.cost > 0.0)

let test_verify_sample_catches_wrong_engine () =
  let env = Env.prepare ~scale:0.05 ~n_q1:40 ~n_q2:5 ~n_q3:5 (Option.get (Dataset.by_name "Flix01")) in
  (* a broken evaluator that always answers nothing *)
  let broken ~cost:_ _q = [||] in
  match Measure.verify_sample env.Env.graph env.Env.q1 broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected verification to fail for the broken engine"

(* --- Experiments (tiny end-to-end) --- *)

let test_experiments_end_to_end () =
  let ctx = Experiments.create_context tiny_config in
  let t1 = Experiments.table1 ctx in
  Alcotest.(check int) "table1 rows" 2 (List.length t1);
  let t2 = Experiments.table2 ctx in
  List.iter
    (fun (name, sizes) ->
      Alcotest.(check int) (name ^ " columns") 4 (List.length sizes);
      (* APEX0 never larger than APEX at the lowest minSup *)
      match sizes with
      | _sdg :: apex0 :: apex_low :: _ ->
        Alcotest.(check bool) "apex0 <= apex(0.005)" true
          (apex0.Experiments.nodes <= apex_low.Experiments.nodes)
      | _ -> Alcotest.fail "unexpected table2 shape")
    t2;
  (* figures: engines agree with the naive evaluator (verify=true) and every
     series is non-empty *)
  let f13 = Experiments.fig13 ctx in
  List.iter
    (fun (name, points) ->
      Alcotest.(check bool) (name ^ " has engines") true (List.length points >= 3))
    f13;
  let f14 = Experiments.fig14 ctx in
  Alcotest.(check int) "fig14 rows" 2 (List.length f14);
  let f15 = Experiments.fig15 ctx in
  List.iter
    (fun (name, points) ->
      Alcotest.(check bool) (name ^ " includes Fabric") true
        (List.exists (fun p -> String.equal p.Experiments.engine "Fabric") points))
    f15

let test_fig13_ged_shape () =
  (* the headline result: on irregular data APEX beats the DataGuide *)
  let cfg = { tiny_config with Experiments.datasets = [ Option.get (Dataset.by_name "Ged01") ];
                               Experiments.scale = 0.2 } in
  let ctx = Experiments.create_context cfg in
  match Experiments.fig13 ctx with
  | [ (_, points) ] ->
    let cost_of name =
      match List.find_opt (fun p -> String.equal p.Experiments.engine name) points with
      | Some p -> p.Experiments.weighted_cost
      | None -> Alcotest.failf "engine %s missing" name
    in
    let sdg = cost_of "SDG" and apex = cost_of "APEX(0.005)" in
    Alcotest.(check bool)
      (Printf.sprintf "APEX (%.0f) beats SDG (%.0f) on Ged" apex sdg)
      true (apex < sdg)
  | _ -> Alcotest.fail "expected one dataset row"

(* --- bench reports against the committed trajectory --- *)

module Json = Repro_telemetry.Json

(* Files are found from the repository root, from test/, or from dune's
   _build/default/test (the executable only after a dune build); when
   none exists, the first candidate is used so the failing case names
   it. *)
let first_existing candidates =
  Option.value (List.find_opt Sys.file_exists candidates) ~default:(List.hd candidates)

let trajectory_file = first_existing [ "BENCH_TRAJECTORY.json"; "../BENCH_TRAJECTORY.json" ]

let apexctl_exe =
  first_existing
    [ "_build/default/bin/apexctl.exe"; "../bin/apexctl.exe"; "../_build/default/bin/apexctl.exe" ]

let load path =
  match Json.parse_file path with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s" e

let fields = function Json.Obj f -> f | _ -> Alcotest.fail "not an object"

let entries trajectory experiment =
  match Option.bind (Json.member experiment trajectory) Json.to_list with
  | Some (_ :: _ as l) -> l
  | _ -> Alcotest.failf "trajectory: no %s entries" experiment

let newest trajectory experiment = List.hd (List.rev (entries trajectory experiment))

(* an entry as the trajectory records a report: without its experiment
   name, gc state and timings, which two runs at one config do not share *)
let rec entry_of = function
  | Json.Obj fs ->
    let timing k =
      k = "experiment" || k = "gc" || String.ends_with ~suffix:"_seconds" k
      || String.ends_with ~suffix:"_us" k
    in
    Json.Obj (List.filter_map (fun (k, v) -> if timing k then None else Some (k, entry_of v)) fs)
  | Json.Arr l -> Json.Arr (List.map entry_of l)
  | v -> v

(* [json] with the value at [path] (object keys, array indices in decimal)
   rewritten by [f]; [None] drops an object field *)
let rec edit path f json =
  match (path, json) with
  | [ key ], Json.Obj fs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if k = key then Option.map (fun v -> (k, v)) (f v) else Some (k, v))
         fs)
  | key :: rest, Json.Obj fs ->
    Json.Obj (List.map (fun (k, v) -> (k, if k = key then edit rest f v else v)) fs)
  | key :: rest, Json.Arr items ->
    Json.Arr (List.mapi (fun i v -> if string_of_int i = key then edit rest f v else v) items)
  | _ -> Alcotest.failf "no %s to edit" (String.concat "." path)

(* what `bench --json` writes for the newest bench entry: that entry plus
   the experiment name, a timing field and a gc object, which no entry
   records *)
let bench_report trajectory =
  let entry = List.remove_assoc "pr" (fields (newest trajectory "bench")) in
  Json.Obj
    ((("experiment", Json.Str "bench") :: entry)
    @ [ ("gc", Json.Obj [ ("minor_words", Json.Num 1e6) ]) ])
  |> edit [ "datasets"; "0"; "q1" ] (fun q1 ->
         Some (Json.Obj (fields q1 @ [ ("wall_seconds", Json.Num 0.01) ])))

let diffs trajectory report =
  match Experiments.bench_diff ~trajectory report with
  | Ok _ -> []
  | Error lines -> lines

let test_bench_diff () =
  let t = load trajectory_file in
  let report = bench_report t in
  Alcotest.(check (list string)) "equal report with extra timing and gc fields" []
    (diffs t report);
  let reordered =
    edit [ "datasets"; "0"; "q2" ] (fun q2 -> Some (Json.Obj (List.rev (fields q2))))
      (Json.Obj (List.rev (fields report)))
  in
  Alcotest.(check (list string)) "reordered object keys" [] (diffs t reordered);
  List.iter
    (fun (what, path, shown, change) ->
      match diffs t (edit path change report) with
      | [ line ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" what line shown)
          true
          (String.starts_with ~prefix:(shown ^ ": ") line)
      | lines ->
        Alcotest.failf "%s: expected one difference, got [%s]" what (String.concat "; " lines))
    [ ( "altered checksum",
        [ "datasets"; "1"; "q2"; "checksum" ],
        "datasets[1].q2.checksum",
        fun _ -> Some (Json.Str "0") );
      ( "altered counter",
        [ "datasets"; "0"; "q3"; "join_edges" ],
        "datasets[0].q3.join_edges",
        fun _ -> Some (Json.Num 1.) );
      ("altered config", [ "config"; "scale" ], "config.scale", fun _ -> Some (Json.Num 0.1));
      ( "missing field",
        [ "datasets"; "0"; "io"; "disk_reads" ],
        "datasets[0].io.disk_reads",
        fun _ -> None ) ];
  Alcotest.(check (list string)) "unknown experiment"
    [ {|no trajectory entry for experiment "nope"|} ]
    (diffs t (edit [ "experiment" ] (fun _ -> Some (Json.Str "nope")) report))

(* the command's exit status, on the same reports *)
let test_bench_diff_exit () =
  let t = load trajectory_file in
  let exit_code report =
    let path = Filename.temp_file "apex_report" ".json" in
    Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string report));
    let code =
      Sys.command
        (Filename.quote_command apexctl_exe ~stdout:Filename.null
           [ "bench-diff"; trajectory_file; path ])
    in
    Sys.remove path;
    code
  in
  Alcotest.(check int) "matching report" 0 (exit_code (bench_report t));
  Alcotest.(check int) "altered checksum" 1
    (exit_code
       (edit [ "datasets"; "0"; "q1"; "checksum" ] (fun _ -> Some (Json.Str "1")) (bench_report t)))

(* Oldest first, only deterministic fields, and every entry of one
   experiment answers with the same checksums. *)
let test_trajectory_file () =
  let t = load trajectory_file in
  let rec checksums path json acc =
    match json with
    | Json.Obj fs ->
      List.fold_left
        (fun acc (k, v) ->
          let path = path ^ "." ^ k in
          if k = "checksum" then (path, Json.to_string v) :: acc else checksums path v acc)
        acc fs
    | Json.Arr l ->
      snd
        (List.fold_left
           (fun (i, acc) v -> (i + 1, checksums (Printf.sprintf "%s[%d]" path i) v acc))
           (0, acc) l)
    | _ -> acc
  in
  List.iter
    (fun (experiment, _) ->
      let entries = entries t experiment in
      let pr e =
        match Option.bind (Json.member "pr" e) Json.to_float with
        | Some n -> int_of_float n
        | None -> Alcotest.failf "%s entry without pr" experiment
      in
      let prs = List.map pr entries in
      Alcotest.(check (list int))
        (experiment ^ " entries oldest first")
        (List.sort_uniq Int.compare prs) prs;
      let first = checksums "" (List.hd entries) [] in
      Alcotest.(check bool) (experiment ^ " records checksums") true (first <> []);
      List.iter
        (fun e ->
          let at = Printf.sprintf "%s PR %d" experiment (pr e) in
          Alcotest.(check bool) (at ^ ": deterministic fields only") true (entry_of e = e);
          Alcotest.(check (list (pair string string)))
            (at ^ ": checksums") first (checksums "" e []))
        entries)
    (fields t)

let test_json_bench_snapshot () =
  let out = Filename.temp_file "apex_bench" ".json" in
  Experiments.json_bench
    { tiny_config with Experiments.datasets = [ Option.get (Dataset.by_name "Flix01") ] }
    ~out;
  let snap = load out in
  Sys.remove out;
  Alcotest.(check (option string)) "experiment" (Some "bench")
    (Option.bind (Json.member "experiment" snap) Json.to_str);
  (* the same fields, in the same nesting, as the newest bench entry *)
  let keys = function Some (Json.Obj fs) -> List.map fst fs | _ -> Alcotest.fail "not an object" in
  let first_row json =
    Option.map List.hd (Option.bind (Json.member "datasets" json) Json.to_list)
  in
  let recorded = first_row (newest (load trajectory_file) "bench") in
  let row = first_row (entry_of snap) in
  Alcotest.(check (list string)) "dataset keys" (keys recorded) (keys row);
  List.iter
    (fun k ->
      Alcotest.(check (list string))
        (k ^ " keys")
        (keys (Option.bind recorded (Json.member k)))
        (keys (Option.bind row (Json.member k))))
    [ "q1"; "q2"; "q3"; "io" ];
  List.iter
    (fun q ->
      match Option.bind (Option.bind row (Json.member q)) (Json.member "checksum") with
      | Some (Json.Str hex) ->
        Alcotest.(check bool) (q ^ " checksum is hex") true (int_of_string_opt ("0x" ^ hex) <> None)
      | _ -> Alcotest.failf "%s checksum is not a string" q)
    [ "q1"; "q2"; "q3" ];
  Alcotest.(check bool) "verified" true
    (Option.bind (Json.member "config" snap) (Json.member "verified") = Some (Json.Bool true));
  (* recorded as an entry, the report checks clean against it *)
  let trajectory =
    Json.Obj [ ("bench", Json.Arr [ Json.Obj (("pr", Json.Num 0.) :: fields (entry_of snap)) ]) ]
  in
  Alcotest.(check (list string)) "bench-diff reads it" [] (diffs trajectory snap)

let () =
  Alcotest.run "harness"
    [ ( "env",
        [ Alcotest.test_case "prepare" `Quick test_env_prepare;
          Alcotest.test_case "deterministic" `Quick test_env_deterministic
        ] );
      ( "measure",
        [ Alcotest.test_case "run" `Quick test_measure_run;
          Alcotest.test_case "verify catches broken engine" `Quick
            test_verify_sample_catches_wrong_engine
        ] );
      ( "experiments",
        [ Alcotest.test_case "end to end" `Slow test_experiments_end_to_end;
          Alcotest.test_case "fig13 Ged shape" `Slow test_fig13_ged_shape
        ] );
      ( "snapshots",
        [ Alcotest.test_case "trajectory file" `Quick test_trajectory_file;
          Alcotest.test_case "bench-diff" `Quick test_bench_diff;
          Alcotest.test_case "bench-diff exit status" `Quick test_bench_diff_exit;
          Alcotest.test_case "json_bench reads back" `Quick test_json_bench_snapshot
        ] )
    ]
