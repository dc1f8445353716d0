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

(* --- bench snapshots: written as Json.t, read back with Json.parse --- *)

module Json = Repro_telemetry.Json

let load path =
  match Json.parse_file path with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s" e

let parse text =
  match Json.parse text with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse: %s" e

let keys = function
  | Some (Json.Obj fields) -> List.map fst fields
  | _ -> Alcotest.fail "not an object"

let datasets json =
  match Option.bind (Json.member "datasets" json) Json.to_list with
  | Some rows -> rows
  | None -> Alcotest.fail "no datasets array"

let mismatch =
  Alcotest.testable
    (fun ppf (m : Experiments.checksum_mismatch) ->
      let show = Option.value ~default:"-" in
      Format.fprintf ppf "%s %s %s/%s" m.dataset m.qtype (show m.base_checksum)
        (show m.other_checksum))
    ( = )

let diff base other =
  match Experiments.diff_checksums ~base ~other with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff_checksums: %s" e

(* [json] with [dataset]'s [qtype] checksum replaced by [sum] *)
let with_checksum json ~dataset ~qtype sum =
  let replace key f = function
    | Json.Obj fields -> Json.Obj (List.map (fun (k, x) -> (k, if k = key then f x else x)) fields)
    | j -> j
  in
  let row r =
    if Json.member "name" r <> Some (Json.Str dataset) then r
    else replace qtype (replace "checksum" (fun _ -> Json.Str sum)) r
  in
  replace "datasets" (function Json.Arr rows -> Json.Arr (List.map row rows) | j -> j) json

let test_diff_committed () =
  let pr1 = load "../BENCH_PR1.json" in
  let common, mismatches = diff pr1 pr1 in
  Alcotest.(check (list string)) "datasets in common" [ "Ged01"; "Flix01" ] common;
  Alcotest.(check (list mismatch)) "self matches" [] mismatches;
  let changed = with_checksum pr1 ~dataset:"Flix01" ~qtype:"q2" "0" in
  Alcotest.(check (list mismatch)) "one changed checksum"
    [ { Experiments.dataset = "Flix01";
        qtype = "q2";
        base_checksum = Some "97c557c083618ae";
        other_checksum = Some "0" } ]
    (snd (diff pr1 changed));
  (* the later block-codec snapshot answers identically *)
  let _, mismatches = diff pr1 (load "../BENCH_PR6.json") in
  Alcotest.(check (list mismatch)) "BENCH_PR6 matches BENCH_PR1" [] mismatches

let test_diff_escaped_name () =
  let doc sum =
    parse (Printf.sprintf {|{"datasets": [{"name": "a\"b", "q1": {"checksum": "%s"}}]}|} sum)
  in
  let common, mismatches = diff (doc "1f") (doc "2f") in
  Alcotest.(check (list string)) "escaped quote in name" [ "a\"b" ] common;
  Alcotest.(check (list mismatch)) "absent batches agree, q1 differs"
    [ { Experiments.dataset = "a\"b";
        qtype = "q1";
        base_checksum = Some "1f";
        other_checksum = Some "2f" } ]
    mismatches;
  (* the updates snapshot keeps its checksums under "batches": two such
     documents must not pass as matching bench snapshots *)
  let updates = parse {|{"datasets": [{"name": "a\"b", "batches": []}]}|} in
  List.iter
    (fun (what, base, other) ->
      match Experiments.diff_checksums ~base ~other with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "compared documents %s" what)
    [ ("without datasets", doc "1", parse {|{"config": {}}|});
      ("without q batches", updates, updates) ]

let test_json_bench_snapshot () =
  let out = Filename.temp_file "apex_bench" ".json" in
  Experiments.json_bench
    { tiny_config with Experiments.datasets = [ Option.get (Dataset.by_name "Flix01") ] }
    ~out;
  let snap = load out in
  Sys.remove out;
  (* same keys, same nesting as the committed block-codec snapshot *)
  let pr6 = List.hd (datasets (load "../BENCH_PR6.json")) in
  let row = List.hd (datasets snap) in
  Alcotest.(check (list string)) "dataset keys" (keys (Some pr6)) (keys (Some row));
  List.iter
    (fun q ->
      Alcotest.(check (list string))
        (q ^ " keys") (keys (Json.member q pr6)) (keys (Json.member q row));
      match Option.bind (Json.member q row) (Json.member "checksum") with
      | Some (Json.Str hex) ->
        Alcotest.(check bool) (q ^ " checksum is hex") true (int_of_string_opt ("0x" ^ hex) <> None)
      | _ -> Alcotest.failf "%s checksum is not a string" q)
    [ "q1"; "q2"; "q3" ];
  Alcotest.(check bool) "verified" true
    (Option.bind (Json.member "config" snap) (Json.member "verified") = Some (Json.Bool true));
  let common, mismatches = diff snap snap in
  Alcotest.(check (list string)) "bench-diff reads it" [ "Flix01" ] common;
  Alcotest.(check (list mismatch)) "self matches" [] mismatches

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
        [ Alcotest.test_case "checksum diff on committed snapshots" `Quick test_diff_committed;
          Alcotest.test_case "escaped dataset name" `Quick test_diff_escaped_name;
          Alcotest.test_case "json_bench reads back" `Quick test_json_bench_snapshot
        ] )
    ]
