(* Bechamel micro-benchmarks: one group per paper artifact, measuring the
   per-operation kernels behind it on a mid-size Flix dataset (plus a Ged
   dataset for the irregular-structure kernels). *)

open Bechamel
open Toolkit

let spec_flix = Option.get (Repro_datagen.Dataset.by_name "Flix01")
let spec_ged = Option.get (Repro_datagen.Dataset.by_name "Ged01")

let prepare () =
  let env_flix = Repro_harness.Env.prepare ~n_q1:200 ~n_q2:40 ~n_q3:50 spec_flix in
  let env_ged = Repro_harness.Env.prepare ~n_q1:200 ~n_q2:40 ~n_q3:50 spec_ged in
  (env_flix, env_ged)

let tests (env_flix : Repro_harness.Env.t) (env_ged : Repro_harness.Env.t) =
  let module Env = Repro_harness.Env in
  let module Apex = Repro_apex.Apex in
  let graph_flix = env_flix.Env.graph and graph_ged = env_ged.Env.graph in
  let apex_flix =
    Apex.build_adapted graph_flix ~workload:env_flix.Env.workload ~min_support:0.005
  in
  let apex_ged = Apex.build_adapted graph_ged ~workload:env_ged.Env.workload ~min_support:0.005 in
  let sdg_flix = Repro_baselines.Dataguide.build graph_flix in
  let fabric_flix = Repro_baselines.Index_fabric.build graph_flix in
  let doc = Repro_datagen.Dataset.generate_document spec_flix in
  let xml_text = Repro_xml.Xml_print.to_string doc in
  let q1 i = env_flix.Env.q1.(i mod Array.length env_flix.Env.q1) in
  [ (* Table 1: substrate kernels *)
    Test.make ~name:"table1/xml_parse" (Staged.stage (fun () -> ignore (Repro_xml.Xml_parser.parse_string xml_text)));
    Test.make ~name:"table1/graph_encode"
      (Staged.stage (fun () -> ignore (Repro_datagen.Flixgen.to_graph doc)));
    (* Table 2: index construction *)
    Test.make ~name:"table2/apex0_build" (Staged.stage (fun () -> ignore (Apex.build graph_flix)));
    Test.make ~name:"table2/apex_refresh"
      (Staged.stage (fun () ->
           let a = Apex.build graph_flix in
           Apex.refresh a ~workload:env_flix.Env.workload ~min_support:0.005));
    Test.make ~name:"table2/dataguide_build"
      (Staged.stage (fun () -> ignore (Repro_baselines.Dataguide.build graph_flix)));
    Test.make ~name:"table2/one_index_build"
      (Staged.stage (fun () -> ignore (Repro_baselines.One_index.build graph_flix)));
    Test.make ~name:"table2/fabric_build"
      (Staged.stage (fun () -> ignore (Repro_baselines.Index_fabric.build graph_flix)));
    (* Figure 13: QTYPE1 evaluation *)
    Test.make ~name:"fig13/apex_q1_flix"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            ignore (Repro_apex.Apex_query.eval_query apex_flix (q1 !i))));
    Test.make ~name:"fig13/sdg_q1_flix"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            ignore (Repro_baselines.Summary_index.eval_query sdg_flix (q1 !i))));
    Test.make ~name:"fig13/apex_q1_ged"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            ignore
              (Repro_apex.Apex_query.eval_query apex_ged
                 env_ged.Env.q1.(!i mod Array.length env_ged.Env.q1))));
    (* Figure 14: QTYPE2 evaluation *)
    Test.make ~name:"fig14/apex_q2_flix"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            ignore
              (Repro_apex.Apex_query.eval_query apex_flix
                 env_flix.Env.q2.(!i mod Array.length env_flix.Env.q2))));
    Test.make ~name:"fig14/sdg_q2_flix"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            ignore
              (Repro_baselines.Summary_index.eval_query sdg_flix
                 env_flix.Env.q2.(!i mod Array.length env_flix.Env.q2))));
    (* Figure 15: QTYPE3 evaluation *)
    Test.make ~name:"fig15/apex_q3_flix"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            ignore
              (Repro_apex.Apex_query.eval_query ~table:env_flix.Env.table apex_flix
                 env_flix.Env.q3.(!i mod Array.length env_flix.Env.q3))));
    Test.make ~name:"fig15/fabric_q3_flix"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            incr i;
            match
              Repro_baselines.Index_fabric.eval_query fabric_flix
                env_flix.Env.q3.(!i mod Array.length env_flix.Env.q3)
            with
            | Some r -> ignore r
            | None -> ()));
    (* xpath layer *)
    Test.make ~name:"xpath/parse"
      (Staged.stage (fun () ->
           ignore (Repro_xpath.Xpath_parser.parse "//movie[video]/cast/leadcast[1]/castname")));
    Test.make ~name:"xpath/planned_exec"
      (Staged.stage
         (let paths =
            Array.map Repro_xpath.Xpath_parser.parse_exn
              [| "//movie/title"; "//movie/cast/*"; "//movie[video]/title" |]
          in
          let i = ref 0 in
          fun () ->
            incr i;
            ignore
              (Repro_xpath.Xpath_plan.execute apex_flix paths.(!i mod Array.length paths))));
    (* storage: B+-tree probe vs heap-table probe *)
    Test.make ~name:"storage/btree_find"
      (Staged.stage
         (let pager = Repro_storage.Pager.create () in
          let pool = Repro_storage.Buffer_pool.create pager ~capacity:256 in
          let btree = Repro_storage.Btree.create pool in
          Repro_storage.Data_table.iter env_flix.Env.table (fun nid v ->
              Repro_storage.Btree.insert btree nid v);
          let i = ref 0 in
          fun () ->
            i := (!i + 7919) land 0xFFFF;
            ignore (Repro_storage.Btree.find btree !i)));
    Test.make ~name:"storage/heap_table_lookup"
      (Staged.stage
         (let i = ref 0 in
          fun () ->
            i := (!i + 7919) land 0xFFFF;
            ignore (Repro_storage.Data_table.lookup env_flix.Env.table !i)));
    (* join engine kernels: gallop vs linear intersection on skewed sizes,
       pairwise union, radix vs comparison sort of a frontier (4,000
       non-negative ints take the radix path, the negated copy cannot),
       range semijoin vs endpoint-sort join *)
    Test.make ~name:"join/inter_gallop_skewed"
      (Staged.stage
         (let small = Array.init 32 (fun i -> i * 3_001) in
          let large = Array.init 100_000 (fun i -> i * 3) in
          fun () -> ignore (Repro_util.Int_sorted.inter small large)));
    Test.make ~name:"join/inter_linear_skewed"
      (Staged.stage
         (let small = Array.init 32 (fun i -> i * 3_001) in
          let large = Array.init 100_000 (fun i -> i * 3) in
          fun () -> ignore (Repro_util.Int_sorted.inter_linear small large)));
    Test.make ~name:"join/union_many"
      (Staged.stage
         (let sets = List.init 12 (fun k -> Array.init 4_000 (fun i -> (i * 13) + k)) in
          fun () -> ignore (Repro_util.Int_sorted.union_many sets)));
    Test.make ~name:"join/of_unsorted_radix"
      (Staged.stage
         (let a = Array.init 4_000 (fun i -> i * 7919 mod 1_000_003) in
          fun () -> ignore (Repro_util.Int_sorted.of_unsorted a)));
    Test.make ~name:"join/of_unsorted_comparison"
      (Staged.stage
         (let a = Array.init 4_000 (fun i -> -(i * 7919 mod 1_000_003)) in
          fun () -> ignore (Repro_util.Int_sorted.of_unsorted a)));
    Test.make ~name:"join/semijoin_endpoints"
      (Staged.stage
         (let module Edge_set = Repro_graph.Edge_set in
          let edges =
            Edge_set.of_packed_array
              (Array.init 50_000 (fun i -> Edge_set.pack (i / 5) (i mod 5 * 7919 mod 100_000)))
          in
          let frontier = Array.init 500 (fun i -> i * 17) in
          fun () -> ignore (Edge_set.semijoin_endpoints edges frontier)));
    (* ablation: mining *)
    Test.make ~name:"ablation/mining_naive"
      (Staged.stage (fun () ->
           ignore (Repro_mining.Path_miner.frequent ~min_support:0.005 env_flix.Env.workload)));
    Test.make ~name:"ablation/mining_apriori"
      (Staged.stage (fun () ->
           ignore (Repro_mining.Apriori.frequent ~min_support:0.005 env_flix.Env.workload)))
  ]

let run () =
  print_endline "preparing micro-benchmark environments (Flix01, Ged01)...";
  let env_flix, env_ged = prepare () in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.75) ~kde:(Some 1000) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"apex" ~fmt:"%s %s" (tests env_flix env_ged))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "\n-- micro-benchmarks (ns/op, OLS on monotonic clock) --";
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-28s %12.0f ns/op\n" name est
      | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare rows)
