module Dataset = Repro_datagen.Dataset
module Apex = Repro_apex.Apex
module Apex_query = Repro_apex.Apex_query
module Summary_index = Repro_baselines.Summary_index
module Dataguide = Repro_baselines.Dataguide
module One_index = Repro_baselines.One_index
module Index_fabric = Repro_baselines.Index_fabric
module Cost = Repro_storage.Cost
module Query = Repro_pathexpr.Query

type config = {
  scale : float;
  datasets : Dataset.spec list;
  n_q1 : int;
  n_q2 : int;
  n_q3 : int;
  min_sups : float list;
  chosen_min_sup : float;
  verify : bool;
}

let default =
  { scale = 1.0;
    datasets = Dataset.all;
    n_q1 = 5000;
    n_q2 = 500;
    n_q3 = 1000;
    min_sups = [ 0.002; 0.005; 0.01; 0.03; 0.05 ];
    chosen_min_sup = 0.005;
    verify = true
  }

let quick =
  { scale = 0.1;
    datasets = Dataset.small;
    n_q1 = 600;
    n_q2 = 80;
    n_q3 = 150;
    min_sups = [ 0.002; 0.005; 0.02; 0.05 ];
    chosen_min_sup = 0.005;
    verify = true
  }

type context = {
  config : config;
  envs : (string, Env.t) Hashtbl.t;
  apex0s : (string, Apex.t) Hashtbl.t;
  apexes : (string * string, Apex.t) Hashtbl.t;  (* keyed by (dataset, minSup string) *)
  dataguides : (string, Summary_index.t option) Hashtbl.t;
  fabrics : (string, Index_fabric.t) Hashtbl.t;
  one_indexes : (string, Summary_index.t) Hashtbl.t;
}

let create_context config =
  { config;
    envs = Hashtbl.create 8;
    apex0s = Hashtbl.create 8;
    apexes = Hashtbl.create 32;
    dataguides = Hashtbl.create 8;
    fabrics = Hashtbl.create 8;
    one_indexes = Hashtbl.create 8
  }

let memo tbl key build =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = build () in
    Hashtbl.add tbl key v;
    v

let ms_key ms = Printf.sprintf "%g" ms

let env ctx (spec : Dataset.spec) =
  memo ctx.envs spec.Dataset.name (fun () ->
      let c = ctx.config in
      Env.prepare ~scale:c.scale ~n_q1:c.n_q1 ~n_q2:c.n_q2 ~n_q3:c.n_q3 spec)

let apex0 ctx spec =
  memo ctx.apex0s spec.Dataset.name (fun () ->
      let e = env ctx spec in
      let apex = Apex.build e.Env.graph in
      Apex.materialize apex e.Env.pool;
      apex)

let apex ctx spec ms =
  memo ctx.apexes (spec.Dataset.name, ms_key ms) (fun () ->
      let e = env ctx spec in
      let apex = Apex.build_adapted e.Env.graph ~workload:e.Env.workload ~min_support:ms in
      Apex.materialize apex e.Env.pool;
      apex)

let dataguide ctx spec =
  memo ctx.dataguides spec.Dataset.name (fun () ->
      let e = env ctx spec in
      match Dataguide.build e.Env.graph with
      | dg ->
        Summary_index.materialize dg e.Env.pool;
        Some dg
      | exception Failure _ -> None)

let fabric ctx spec =
  memo ctx.fabrics spec.Dataset.name (fun () -> Index_fabric.build (env ctx spec).Env.graph)

let one_index ctx spec =
  memo ctx.one_indexes spec.Dataset.name (fun () ->
      let e = env ctx spec in
      let oi = One_index.build e.Env.graph in
      Summary_index.materialize oi e.Env.pool;
      oi)

let release ctx name =
  Hashtbl.remove ctx.envs name;
  Hashtbl.remove ctx.apex0s name;
  Hashtbl.remove ctx.dataguides name;
  Hashtbl.remove ctx.fabrics name;
  Hashtbl.remove ctx.one_indexes name;
  Hashtbl.iter
    (fun (ds, ms) _ -> if String.equal ds name then Hashtbl.remove ctx.apexes (ds, ms))
    (Hashtbl.copy ctx.apexes)

(* --- evaluator closures --- *)

let apex_eval e apex ~cost q = Apex_query.eval_query ~cost ~table:e.Env.table apex q

(* Figure 14's reference plan: QTYPE2 through the paper's rewrite search
   whatever the graph's shape *)
let apex_rewrite_eval e apex ~cost q =
  match Query.compile (Repro_graph.Data_graph.labels (Apex.graph apex)) q with
  | Some (Query.C2 (la, lb)) -> Apex_query.eval_q2_rewrite ~cost apex la lb
  | Some _ | None -> apex_eval e apex ~cost q

let summary_eval e index ~cost q = Summary_index.eval_query ~cost ~table:e.Env.table index q

let fabric_eval fab ~cost q =
  match Index_fabric.eval_query ~cost fab q with
  | Some r -> r
  | None -> [||]

let verify ctx e name queries eval =
  if ctx.config.verify then
    match Measure.verify_sample e.Env.graph queries eval with
    | Ok () -> ()
    | Error m ->
      failwith (Printf.sprintf "verification failed for %s on %s: %s" name e.Env.spec.Dataset.name m)

let measure ctx e name queries eval =
  verify ctx e name queries eval;
  Repro_storage.Buffer_pool.flush e.Env.pool;
  Measure.run queries eval

(* --- Table 1 --- *)

let table1 ctx =
  let rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        (spec.Dataset.name, Repro_graph.Graph_stats.compute e.Env.graph))
      ctx.config.datasets
  in
  Report.table ~title:"Table 1: data set characteristics"
    ~header:[ "Data Set"; "nodes"; "edges"; "labels" ]
    (List.map
       (fun (name, s) ->
         [ name;
           string_of_int s.Repro_graph.Graph_stats.nodes;
           string_of_int s.Repro_graph.Graph_stats.edges;
           Printf.sprintf "%d(%d)" s.Repro_graph.Graph_stats.labels
             s.Repro_graph.Graph_stats.idref_labels
         ])
       rows);
  rows

let workload_characteristics ctx =
  let rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        (spec.Dataset.name, Repro_workload.Workload_stats.compute e.Env.graph e.Env.q1))
      ctx.config.datasets
  in
  Report.table ~title:"Workload characteristics (QTYPE1 query set)"
    ~header:[ "Data Set"; "queries"; "distinct"; "mean len"; "max"; "deref %"; "root-anchored %" ]
    (List.map
       (fun (name, s) ->
         [ name;
           string_of_int s.Repro_workload.Workload_stats.queries;
           string_of_int s.Repro_workload.Workload_stats.distinct;
           Printf.sprintf "%.2f" s.Repro_workload.Workload_stats.mean_length;
           string_of_int s.Repro_workload.Workload_stats.max_length;
           Printf.sprintf "%.0f" (100. *. s.Repro_workload.Workload_stats.with_dereference);
           Printf.sprintf "%.0f" (100. *. s.Repro_workload.Workload_stats.root_anchored)
         ])
       rows);
  rows

(* --- Table 2 --- *)

type index_size = { index : string; nodes : int; edges : int }

let table2 ctx =
  let rows =
    List.map
      (fun spec ->
        let sdg =
          match dataguide ctx spec with
          | Some dg ->
            let n, e = Summary_index.stats dg in
            { index = "SDG"; nodes = n; edges = e }
          | None -> { index = "SDG"; nodes = -1; edges = -1 }
        in
        let n0, e0 = Apex.stats (apex0 ctx spec) in
        let apex_sizes =
          List.map
            (fun ms ->
              let n, e = Apex.stats (apex ctx spec ms) in
              { index = Printf.sprintf "APEX(%g)" ms; nodes = n; edges = e })
            ctx.config.min_sups
        in
        (spec.Dataset.name, (sdg :: { index = "APEX0"; nodes = n0; edges = e0 } :: apex_sizes)))
      ctx.config.datasets
  in
  let show n = if n < 0 then "blowup" else string_of_int n in
  Report.table ~title:"Table 2: index sizes (nodes/edges)"
    ~header:
      ("Data Set"
      :: (match rows with
          | (_, sizes) :: _ -> List.map (fun s -> s.index) sizes
          | [] -> []))
    (List.map
       (fun (name, sizes) ->
         name :: List.map (fun s -> Printf.sprintf "%s/%s" (show s.nodes) (show s.edges)) sizes)
       rows);
  rows

(* --- figures --- *)

type series_point = {
  engine : string;
  weighted_cost : float;
  wall_seconds : float;
  cost : Cost.t;
}

let point name (m : Measure.result) =
  { engine = name; weighted_cost = Measure.weighted m; wall_seconds = m.Measure.wall_seconds; cost = m.Measure.cost }

let print_series title rows =
  Report.table ~title ~header:[ "Data Set"; "engine"; "weighted cost"; "wall (s)"; "pages"; "steps" ]
    (List.concat_map
       (fun (name, points) ->
         List.map
           (fun p ->
             [ name;
               p.engine;
               Report.float0 p.weighted_cost;
               Printf.sprintf "%.3f" p.wall_seconds;
               string_of_int
                 (p.cost.Cost.extent_pages + p.cost.Cost.table_pages + p.cost.Cost.trie_pages
                 + p.cost.Cost.struct_pages);
               string_of_int
                 (p.cost.Cost.index_node_visits + p.cost.Cost.index_edge_lookups
                 + p.cost.Cost.hash_probes + p.cost.Cost.trie_node_visits)
             ])
           points)
       rows)

let fig13 ctx =
  let rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let points = ref [] in
        (match dataguide ctx spec with
         | Some dg ->
           points := [ point "SDG" (measure ctx e "SDG" e.Env.q1 (summary_eval e dg)) ]
         | None -> ());
        points :=
          !points @ [ point "APEX0" (measure ctx e "APEX0" e.Env.q1 (apex_eval e (apex0 ctx spec))) ];
        List.iter
          (fun ms ->
            let name = Printf.sprintf "APEX(%g)" ms in
            points :=
              !points @ [ point name (measure ctx e name e.Env.q1 (apex_eval e (apex ctx spec ms))) ])
          ctx.config.min_sups;
        (spec.Dataset.name, !points))
      ctx.config.datasets
  in
  print_series "Figure 13: total QTYPE1 evaluation cost" rows;
  rows

let fig14 ctx =
  let rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let ms = ctx.config.chosen_min_sup in
        let points = ref [] in
        (match dataguide ctx spec with
         | Some dg -> points := [ point "SDG" (measure ctx e "SDG" e.Env.q2 (summary_eval e dg)) ]
         | None -> ());
        (* both plans over each index: the paper's rewrite search and the
           tree-ancestor plan the evaluator takes on document forests *)
        let plans name index =
          [ point (name ^ " rewrite")
              (measure ctx e (name ^ " rewrite") e.Env.q2 (apex_rewrite_eval e index));
            point (name ^ " tree") (measure ctx e (name ^ " tree") e.Env.q2 (apex_eval e index))
          ]
        in
        points :=
          !points @ plans "APEX0" (apex0 ctx spec) @ plans (Printf.sprintf "APEX(%g)" ms) (apex ctx spec ms);
        (spec.Dataset.name, !points))
      ctx.config.datasets
  in
  print_series "Figure 14: total QTYPE2 evaluation cost" rows;
  rows

let fig15 ctx =
  let rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let ms = ctx.config.chosen_min_sup in
        let points = ref [] in
        points :=
          [ point "Fabric" (measure ctx e "Fabric" e.Env.q3 (fabric_eval (fabric ctx spec))) ];
        (match dataguide ctx spec with
         | Some dg -> points := !points @ [ point "SDG" (measure ctx e "SDG" e.Env.q3 (summary_eval e dg)) ]
         | None -> ());
        points :=
          !points
          @ [ point
                (Printf.sprintf "APEX(%g)" ms)
                (measure ctx e "APEX" e.Env.q3 (apex_eval e (apex ctx spec ms)))
            ];
        (spec.Dataset.name, !points))
      ctx.config.datasets
  in
  print_series "Figure 15: total QTYPE3 evaluation cost" rows;
  rows

(* --- ablations --- *)

let time f =
  let t0 = Repro_telemetry.Trace.now_ns () in
  let r = f () in
  (r, Float.of_int (Repro_telemetry.Trace.now_ns () - t0) *. 1e-9)

let ablation ctx =
  let ms = ctx.config.chosen_min_sup in
  (* 1. mining algorithms agree; compare their runtimes *)
  let mining_rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let w = e.Env.workload in
        let naive, t_naive = time (fun () -> Repro_mining.Path_miner.frequent ~min_support:ms w) in
        let apriori, t_apriori = time (fun () -> Repro_mining.Apriori.frequent ~min_support:ms w) in
        if naive <> apriori then failwith "ablation: mining algorithms disagree";
        [ spec.Dataset.name;
          string_of_int (List.length naive);
          Printf.sprintf "%.4f" t_naive;
          Printf.sprintf "%.4f" t_apriori
        ])
      ctx.config.datasets
  in
  Report.table ~title:"Ablation: frequent-path mining (naive one-scan vs apriori)"
    ~header:[ "Data Set"; "frequent paths"; "naive (s)"; "apriori (s)" ]
    mining_rows;
  (* 2. incremental refresh vs fresh rebuild *)
  let update_rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let w = Array.of_list e.Env.workload in
        let half = Array.length w / 2 in
        let w1 = Array.to_list (Array.sub w 0 half) in
        let w2 = Array.to_list (Array.sub w half (Array.length w - half)) in
        let incremental = Apex.build_adapted e.Env.graph ~workload:w1 ~min_support:ms in
        let (), t_inc = time (fun () -> Apex.refresh incremental ~workload:w2 ~min_support:ms) in
        let _, t_fresh = time (fun () -> Apex.build_adapted e.Env.graph ~workload:w2 ~min_support:ms) in
        let n, _ = Apex.stats incremental in
        [ spec.Dataset.name;
          string_of_int n;
          Printf.sprintf "%.4f" t_inc;
          Printf.sprintf "%.4f" t_fresh;
          Printf.sprintf "%.2fx" (t_fresh /. Float.max 1e-9 t_inc)
        ])
      ctx.config.datasets
  in
  Report.table ~title:"Ablation: incremental update vs rebuild from scratch"
    ~header:[ "Data Set"; "APEX nodes"; "refresh (s)"; "rebuild (s)"; "speedup" ]
    update_rows;
  (* 3. the 1-index as a fourth QTYPE1 engine *)
  let oi_rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let oi = one_index ctx spec in
        let n, edges = Summary_index.stats oi in
        let m = measure ctx e "1-index" e.Env.q1 (summary_eval e oi) in
        [ spec.Dataset.name;
          Printf.sprintf "%d/%d" n edges;
          Report.float0 (Measure.weighted m);
          Printf.sprintf "%.3f" m.Measure.wall_seconds
        ])
      ctx.config.datasets
  in
  Report.table ~title:"Ablation: 1-index on QTYPE1"
    ~header:[ "Data Set"; "size"; "weighted cost"; "wall (s)" ]
    oi_rows;
  (* 4. buffer-pool sensitivity for APEX QTYPE1 *)
  let pool_rows =
    List.concat_map
      (fun spec ->
        let e = env ctx spec in
        List.map
          (fun pool_pages ->
            let pager = Repro_storage.Pager.create ~page_size:8192 () in
            let pool = Repro_storage.Buffer_pool.create pager ~capacity:pool_pages in
            let a = Apex.build_adapted e.Env.graph ~workload:e.Env.workload ~min_support:ms in
            Apex.materialize a pool;
            let m =
              Measure.run e.Env.q1 (fun ~cost q ->
                  Apex_query.eval_query ~cost ~table:e.Env.table a q)
            in
            let stats = Repro_storage.Pager.stats pager in
            [ spec.Dataset.name;
              string_of_int pool_pages;
              Report.float0 (Measure.weighted m);
              string_of_int stats.Repro_storage.Io_stats.disk_reads;
              string_of_int stats.Repro_storage.Io_stats.cache_hits
            ])
          [ 16; 128; 1024 ])
      ctx.config.datasets
  in
  Report.table ~title:"Ablation: buffer-pool size (APEX QTYPE1)"
    ~header:[ "Data Set"; "pool pages"; "weighted cost"; "disk reads"; "cache hits" ]
    pool_rows;
  (* 5. data-table organization: sorted heap pages + sparse directory vs a
     B+-tree, as the validation backend for QTYPE3 *)
  let table_rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let a = apex ctx spec ms in
        let heap = measure ctx e "APEX+heap-table" e.Env.q3 (apex_eval e a) in
        (* load the same values into a B+-tree and validate through it *)
        let pager = Repro_storage.Pager.create () in
        let pool = Repro_storage.Buffer_pool.create pager ~capacity:1024 in
        let btree = Repro_storage.Btree.create pool in
        Repro_storage.Data_table.iter e.Env.table (fun nid v -> Repro_storage.Btree.insert btree nid v);
        let btree_eval ~cost q =
          match Query.compile (Repro_graph.Data_graph.labels e.Env.graph) q with
          | Some (Query.C3 (path, value)) ->
            let candidates = Apex_query.eval ~cost a (Query.C1 path) in
            Array.of_seq
              (Seq.filter
                 (fun nid -> Repro_storage.Btree.find ~cost btree nid = Some value)
                 (Array.to_seq candidates))
          | Some compiled -> Apex_query.eval ~cost a compiled
          | None -> [||]
        in
        let bt = measure ctx e "APEX+btree-table" e.Env.q3 btree_eval in
        [ spec.Dataset.name;
          Report.float0 (Measure.weighted heap);
          Report.float0 (Measure.weighted bt);
          string_of_int (Repro_storage.Btree.height btree)
        ])
      ctx.config.datasets
  in
  Report.table ~title:"Ablation: QTYPE3 validation backend (heap table vs B+-tree)"
    ~header:[ "Data Set"; "heap table"; "B+-tree"; "tree height" ]
    table_rows;
  (* 6. extent codec: raw 8-byte ints vs the block codec queries run on *)
  let codec_rows =
    List.map
      (fun spec ->
        let e = env ctx spec in
        let run codec =
          let pager = Repro_storage.Pager.create () in
          let pool = Repro_storage.Buffer_pool.create pager ~capacity:1024 in
          let a = Apex.build_adapted e.Env.graph ~workload:e.Env.workload ~min_support:ms in
          Apex.materialize ~codec a pool;
          let m =
            Measure.run e.Env.q1 (fun ~cost q ->
                Apex_query.eval_query ~cost ~table:e.Env.table a q)
          in
          (Measure.weighted m, Repro_storage.Pager.n_pages pager)
        in
        let raw_cost, raw_pages = run `Raw in
        let block_cost, block_pages = run `Block in
        [ spec.Dataset.name;
          Report.float0 raw_cost;
          string_of_int raw_pages;
          Report.float0 block_cost;
          string_of_int block_pages;
          Printf.sprintf "%.1fx" (float_of_int raw_pages /. float_of_int (max 1 block_pages))
        ])
      ctx.config.datasets
  in
  Report.table ~title:"Ablation: extent codec (raw vs block)"
    ~header:[ "Data Set"; "raw cost"; "raw pages"; "block cost"; "block pages"; "compression" ]
    codec_rows

(* --- machine-readable benchmark snapshot (--json) --- *)

module Json = Repro_telemetry.Json

let int n = Json.Num (float_of_int n)

(* result checksums are 63-bit: hex strings, never JSON numbers *)
let hex n = Json.Str (Printf.sprintf "%x" n)

let write_json out doc =
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" out

let json_of_measure (m : Measure.result) =
  let c = m.Measure.cost in
  Json.Obj
    [ ("queries", int m.Measure.queries);
      ("answered", int m.Measure.answered);
      ("result_nodes", int m.Measure.result_nodes);
      ("checksum", hex m.Measure.checksum);
      ("wall_seconds", Json.Num m.Measure.wall_seconds);
      ("weighted_cost", Json.Num (Measure.weighted m));
      ("extent_pages", int c.Cost.extent_pages);
      ("extent_bytes", int c.Cost.extent_bytes);
      ("extent_edges", int c.Cost.extent_edges);
      ("join_edges", int c.Cost.join_edges);
      ("blocks_skipped", int c.Cost.blocks_skipped);
      ("blocks_decoded", int c.Cost.blocks_decoded);
      ("extent_cache_hits", int c.Cost.extent_cache_hits);
      ("extent_cache_misses", int c.Cost.extent_cache_misses);
      ("extent_cache_hit_rate", Json.Num (Cost.extent_cache_hit_rate c)) ]

let json_bench config ~out =
  let ms = config.chosen_min_sup in
  let dataset_rows =
    List.map
      (fun spec ->
        let ctx = create_context { config with datasets = [ spec ] } in
        let e = env ctx spec in
        let a, build_seconds =
          time (fun () ->
              let a = Apex.build_adapted e.Env.graph ~workload:e.Env.workload ~min_support:ms in
              Apex.materialize a e.Env.pool;
              a)
        in
        let nodes, edges = Apex.stats a in
        let eval = apex_eval e a in
        let batch name queries =
          verify ctx e name queries eval;
          Repro_storage.Buffer_pool.flush e.Env.pool;
          json_of_measure (Measure.run queries eval)
        in
        let q1 = batch "q1" e.Env.q1 in
        let q2 = batch "q2" e.Env.q2 in
        let q3 = batch "q3" e.Env.q3 in
        (* the I/O story behind the logical costs: every pager counter for
           this dataset's pool (build + materialize + all three batches),
           emitted via [to_fields] so a new counter lands here automatically *)
        let io =
          Repro_storage.Io_stats.to_fields
            (Repro_storage.Pager.stats (Repro_storage.Buffer_pool.pager e.Env.pool))
        in
        (* store-level compression: logical (8 bytes/edge) vs encoded size
           of everything appended to this dataset's extent store *)
        let compression_ratio =
          match Apex.store a with
          | None -> 1.0
          | Some store ->
            let logical, stored = Repro_storage.Extent_store.compression_stats store in
            if stored = 0 then 1.0 else float_of_int logical /. float_of_int stored
        in
        Json.Obj
          [ ("name", Json.Str spec.Dataset.name);
            ("build_seconds", Json.Num build_seconds);
            ("apex_nodes", int nodes);
            ("apex_edges", int edges);
            ("compression_ratio", Json.Num compression_ratio);
            ("q1", q1);
            ("q2", q2);
            ("q3", q3);
            ("io", Json.Obj (List.map (fun (k, v) -> (k, int v)) io)) ])
      config.datasets
  in
  (* process-wide GC state at report time, beside the counters; it
     depends on the runtime, so no trajectory entry records it *)
  let gc = List.map (fun (k, v) -> (k, Json.Num v)) (Repro_telemetry.Metrics.gc_source ()) in
  write_json out
    (Json.Obj
       [ ("experiment", Json.Str "bench");
         ( "config",
           Json.Obj
             [ ("scale", Json.Num config.scale);
               ("n_q1", int config.n_q1);
               ("n_q2", int config.n_q2);
               ("n_q3", int config.n_q3);
               ("min_support", Json.Num ms);
               ("verified", Json.Bool config.verify) ] );
         ("gc", Json.Obj gc);
         ("datasets", Json.Arr dataset_rows) ])

(* --- bench-diff: a fresh report against the committed trajectory --- *)

let bench_diff ~trajectory report =
  let checked = ref 0 and diffs = ref [] in
  (* every leaf of [expected] must sit at the same path in [actual] with an
     equal value; what [actual] adds (timings, gc) is not looked at *)
  let rec walk path expected actual =
    let differ fmt = Printf.ksprintf (fun m -> diffs := (path ^ ": " ^ m) :: !diffs) fmt in
    let at key = if path = "" then key else path ^ "." ^ key in
    match (expected, actual) with
    | _, None -> differ "missing from the report"
    | Json.Obj fields, Some (Json.Obj _ as a) ->
      List.iter (fun (k, v) -> walk (at k) v (Json.member k a)) fields
    | Json.Arr xs, Some (Json.Arr ys) when List.compare_lengths xs ys = 0 ->
      List.iteri
        (fun i (x, y) -> walk (Printf.sprintf "%s[%d]" path i) x (Some y))
        (List.combine xs ys)
    | Json.Arr xs, Some (Json.Arr ys) ->
      differ "%d elements in the trajectory, %d in the report" (List.length xs)
        (List.length ys)
    | (Json.Obj _ | Json.Arr _), Some a ->
      differ "%s in the trajectory, %s in the report" (Json.type_name expected)
        (Json.type_name a)
    | leaf, Some a when leaf = a -> incr checked
    | leaf, Some a -> differ "trajectory %s, report %s" (Json.to_string leaf) (Json.to_string a)
  in
  match Option.bind (Json.member "experiment" report) Json.to_str with
  | None -> Error [ "the report has no experiment field" ]
  | Some experiment ->
    let entries = Option.bind (Json.member experiment trajectory) Json.to_list in
    (match List.rev (Option.value ~default:[] entries) with
     | [] -> Error [ Printf.sprintf "no trajectory entry for experiment %S" experiment ]
     | Json.Obj fields :: _ ->
       let pr = Option.fold ~none:"?" ~some:Json.to_string (List.assoc_opt "pr" fields) in
       walk "" (Json.Obj (List.remove_assoc "pr" fields)) (Some report);
       if !diffs = [] then
         Ok
           (Printf.sprintf "%s report matches trajectory entry PR %s (%d fields)" experiment pr
              !checked)
       else Error (List.rev !diffs)
     | _ :: _ -> Error [ Printf.sprintf "the newest %s entry is not an object" experiment ])

let run_all config =
  Report.section (Printf.sprintf "APEX reproduction experiments (scale %gx)" config.scale);
  (* group work per dataset so memory for one dataset's indexes can be
     released before the next *)
  List.iter
    (fun spec ->
      let sub = { config with datasets = [ spec ] } in
      let ctx = create_context sub in
      ignore (table1 ctx);
      ignore (workload_characteristics ctx);
      ignore (table2 ctx);
      ignore (fig13 ctx);
      ignore (fig14 ctx);
      ignore (fig15 ctx);
      ablation ctx;
      release ctx spec.Dataset.name)
    config.datasets

(* --- bench updates: maintained index vs rebuild, page I/O per delta --- *)

let updates config ~out =
  let module Generate = Repro_workload.Generate in
  let module Update = Repro_update.Update in
  let module Update_workload = Repro_workload.Update_workload in
  let module Io_stats = Repro_storage.Io_stats in
  let ms = config.chosen_min_sup in
  let batch_sizes = [ 1; 4; 16; 64 ] in
  let table_rows = ref [] in
  let dataset_rows =
    List.map
      (fun spec0 ->
        let spec = Dataset.scaled spec0 config.scale in
        let batch_cells =
          List.map
            (fun n ->
              (* maintained leg: fresh adapted index in a fresh store, then
                 one op batch; every page written after the baseline flush
                 is maintenance I/O *)
              let g0 = Dataset.build_graph spec in
              let rand = Random.State.make [| spec0.Dataset.seed; n; 0xBE7C |] in
              let workload = Env.compile_workload g0 (Generate.qtype1 ~n:24 rand g0) in
              let pager = Repro_storage.Pager.create ~page_size:4096 () in
              let pool = Repro_storage.Buffer_pool.create pager ~capacity:256 in
              let apex = Apex.build_adapted g0 ~workload ~min_support:ms in
              Apex.materialize apex pool;
              Repro_storage.Buffer_pool.flush pool;
              let writes0 = (Repro_storage.Pager.stats pager).Io_stats.disk_writes in
              let ops, _ = Update_workload.gen_ops ~seed:(spec0.Dataset.seed + n) ~n g0 in
              let ustats, t_maint = time (fun () -> Update.apply apex ops) in
              Repro_storage.Buffer_pool.flush pool;
              let maintained_writes =
                (Repro_storage.Pager.stats pager).Io_stats.disk_writes - writes0
              in
              (* rebuild leg: what answering the same updates costs if the
                 index is instead re-extracted and re-materialized whole *)
              let g1 = Apex.graph apex in
              let pager_r = Repro_storage.Pager.create ~page_size:4096 () in
              let pool_r = Repro_storage.Buffer_pool.create pager_r ~capacity:256 in
              let rebuilt, t_reb =
                time (fun () ->
                    let r = Apex.build_adapted g1 ~workload ~min_support:ms in
                    Apex.materialize r pool_r;
                    Repro_storage.Buffer_pool.flush pool_r;
                    r)
              in
              let rebuild_writes = (Repro_storage.Pager.stats pager_r).Io_stats.disk_writes in
              (* one query battery through both engines over the mutated
                 graph: the result checksums must be bit-identical *)
              let queries =
                Array.concat
                  [ Generate.qtype1 ~n:10 rand g1;
                    Generate.qtype2 ~n:3 rand g1;
                    Generate.qtype3 ~n:5 rand g1
                  ]
              in
              let maintained_eval ~cost q = Apex_query.eval_query ~cost apex q in
              let m_maint = Measure.run queries maintained_eval in
              let m_reb =
                Measure.run queries (fun ~cost q -> Apex_query.eval_query ~cost rebuilt q)
              in
              if m_maint.Measure.checksum <> m_reb.Measure.checksum then
                failwith
                  (Printf.sprintf
                     "bench updates: %s batch %d: maintained index diverged from rebuild"
                     spec.Dataset.name n);
              if config.verify then begin
                match Measure.verify_sample g1 queries maintained_eval with
                | Ok () -> ()
                | Error m ->
                  failwith
                    (Printf.sprintf "bench updates: %s batch %d: %s" spec.Dataset.name n m)
              end;
              let delta = ustats.Update.edges_added + ustats.Update.edges_removed in
              table_rows :=
                [ spec.Dataset.name;
                  string_of_int n;
                  string_of_int delta;
                  string_of_int ustats.Update.slots_patched;
                  string_of_int ustats.Update.extents_flushed;
                  string_of_int maintained_writes;
                  string_of_int rebuild_writes;
                  Printf.sprintf "%.4f" t_maint;
                  Printf.sprintf "%.4f" t_reb;
                  Printf.sprintf "%x" m_maint.Measure.checksum
                ]
                :: !table_rows;
              Json.Obj
                [ ("batch_ops", int n);
                  ("delta_edges", int delta);
                  ("slots_patched", int ustats.Update.slots_patched);
                  ("extents_flushed", int ustats.Update.extents_flushed);
                  ("maintained_page_writes", int maintained_writes);
                  ("rebuild_page_writes", int rebuild_writes);
                  ("maintained_seconds", Json.Num t_maint);
                  ("rebuild_seconds", Json.Num t_reb);
                  ("checksum", hex m_maint.Measure.checksum) ])
            batch_sizes
        in
        Json.Obj [ ("name", Json.Str spec.Dataset.name); ("batches", Json.Arr batch_cells) ])
      config.datasets
  in
  Report.table ~title:"bench updates: maintained APEX vs from-scratch rebuild"
    ~header:
      [ "Data Set"; "ops"; "delta edges"; "slots"; "flushed"; "maint pages"; "rebuild pages";
        "maint (s)"; "rebuild (s)"; "checksum"
      ]
    (List.rev !table_rows);
  Option.iter
    (fun out ->
      write_json out
        (Json.Obj
           [ ("experiment", Json.Str "updates");
             ( "config",
               Json.Obj
                 [ ("scale", Json.Num config.scale);
                   ("min_support", Json.Num ms);
                   ("verified", Json.Bool config.verify) ] );
             ("datasets", Json.Arr dataset_rows) ]))
    out

(* --- fault-injection smoke --- *)

let fault_smoke config =
  match config.datasets with
  | [] -> failwith "fault_smoke: no datasets configured"
  | spec :: _ ->
    let ctx = create_context { config with datasets = [ spec ] } in
    let e = env ctx spec in
    let a = apex ctx spec config.chosen_min_sup in
    let clean = measure ctx e "APEX" e.Env.q1 (apex_eval e a) in
    (* replay the batch against a pager whose reads randomly flip bits and
       truncate: per-page CRCs detect the damage, retries heal it, and the
       result checksum must not move *)
    let fault = Repro_storage.Fault.create ~seed:7 () in
    Repro_storage.Fault.arm_random fault ~prob:0.05
      ~kinds:[ Repro_storage.Fault.Read_flip; Repro_storage.Fault.Short_read ];
    let pager = Repro_storage.Pager.create ~page_size:8192 () in
    Repro_storage.Pager.set_fault pager (Some fault);
    let pool = Repro_storage.Buffer_pool.create pager ~capacity:64 in
    Apex.materialize a pool;
    Repro_storage.Buffer_pool.flush pool;
    let faulty = Measure.run e.Env.q1 (apex_eval e a) in
    let stats = Repro_storage.Pager.stats pager in
    Report.table
      ~title:
        (Printf.sprintf "Fault smoke: %s QTYPE1 under transient read faults"
           spec.Dataset.name)
      ~header:[ "run"; "checksum"; "weighted cost"; "disk reads"; "retries"; "injections" ]
      [ [ "clean";
          Printf.sprintf "%x" clean.Measure.checksum;
          Report.float0 (Measure.weighted clean);
          "-"; "-"; "-"
        ];
        [ "faulted";
          Printf.sprintf "%x" faulty.Measure.checksum;
          Report.float0 (Measure.weighted faulty);
          string_of_int stats.Repro_storage.Io_stats.disk_reads;
          string_of_int stats.Repro_storage.Io_stats.read_retries;
          string_of_int (Repro_storage.Fault.injections fault)
        ]
      ];
    if clean.Measure.checksum <> faulty.Measure.checksum then
      failwith "fault_smoke: result checksum drifted under transient read faults";
    if Repro_storage.Fault.injections fault = 0 then
      print_endline "note: no faults fired on this batch; rerun with a larger workload"
