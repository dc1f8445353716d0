(* The drift benchmark: support-only mining vs the cost-benefit policy on
   the same phased drifting workloads (Repro_workload.Drift), reporting
   per phase how many refreshes each miner needed to stop changing the
   index, how many pages the converged index occupies, and reader latency
   percentiles (written as JSON with --json).

   The run doubles as a correctness check: every phase's result stream is
   checksummed against the naive single-threaded oracle for both engines,
   so a green drift bench says adaptation moved cost, never answers. *)

module Experiments = Repro_harness.Experiments
module Dataset = Repro_datagen.Dataset
module Drift = Repro_workload.Drift
module Self_tuning = Repro_adaptive.Self_tuning
module Policy = Repro_adaptive.Policy
module Apex = Repro_apex.Apex
module Hash_tree = Repro_apex.Hash_tree
module Apex_persist = Repro_apex.Apex_persist
module Label = Repro_graph.Label
module Naive_eval = Repro_pathexpr.Naive_eval
module Query = Repro_pathexpr.Query
module Cost = Repro_storage.Cost
module Pager = Repro_storage.Pager
module Buffer_pool = Repro_storage.Buffer_pool
module Histogram = Repro_telemetry.Metrics.Histogram

let seed = 42
let minsup = 0.03
let window = 500
let n_per_phase = 6000
let scratch_page_size = 256

(* FNV-1a over result nid streams; array lengths are folded in so
   "identical multiset, different split" cannot collide *)
let fnv h x = (h lxor x) * 0x01000193 land max_int

let checksum_fold h results =
  Array.fold_left fnv (fnv h (Array.length results)) results

(* index fingerprint: the forward paths of every hash-tree slot. Node ids
   are deliberately excluded — rebuilding the same logical index must
   fingerprint identically. *)
let fingerprint apex =
  let acc = ref [] in
  Hash_tree.iter_slots (Apex.tree apex) (fun suffix _slot is_remainder ->
      let key =
        String.concat "." (List.map string_of_int (suffix :> int list))
        ^ if is_remainder then "+R" else ""
      in
      acc := key :: !acc);
  List.sort_uniq String.compare !acc

let diff_size a b =
  let tbl = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) a;
  let extra_b = List.length (List.filter (fun k -> not (Hashtbl.mem tbl k)) b) in
  let tbl_b = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace tbl_b k ()) b;
  let extra_a = List.length (List.filter (fun k -> not (Hashtbl.mem tbl_b k)) a) in
  extra_a + extra_b

(* Converged index footprint, in [scratch_page_size]-byte pages of the
   serialized index image (hash tree + summary graph + extents). Raw
   extent volume alone cannot tell the two miners apart — G_APEX extents
   *partition* the per-label extents, so refining the partition conserves
   total edges — but every extra indexed path costs tree entries, summary
   nodes/edges and extent boundaries in the image, which is exactly the
   structure an index on disk must store. *)
let index_pages apex =
  let image_bytes = 8 * Array.length (Apex_persist.to_image apex) in
  (image_bytes + scratch_page_size - 1) / scratch_page_size

(* extent volume through a scratch store, for the report: near-identical
   across miners (the partition-invariance above), which is worth showing *)
let extent_pages g apex =
  let pager = Pager.create ~page_size:scratch_page_size () in
  let pool = Buffer_pool.create pager ~capacity:64 in
  let copy = Apex_persist.of_image g (Apex_persist.to_image apex) in
  Apex.materialize ~codec:`Raw copy pool;
  Pager.n_pages pager

type phase_report = {
  r_name : string;
  r_refreshes : int;
  r_changes : int list;  (* fingerprint symmetric-difference per refresh *)
  r_rtc : int;  (* 1-based index of last refresh that changed the index *)
  r_stable_tail : int;
  r_pages : int;
  r_extent_pages : int;
  r_nodes : int;
  r_edges : int;
  r_entries : int;
  r_p50_us : float;
  r_p99_us : float;
  r_checksum : int;
}

let run_engine ~g ~phases ~policy =
  let tuner =
    Self_tuning.create ~log_capacity:window ~min_support:minsup
      ~refresh_every:window ?policy g
  in
  let fp = ref (fingerprint (Self_tuning.apex tuner)) in
  List.map
    (fun ph ->
      let hist = Histogram.create () in
      let changes = ref [] in
      let cksum = ref 0x811c9dc5 in
      Array.iteri
        (fun i q ->
          let t0 = Repro_telemetry.Trace.now_ns () in
          let res = Self_tuning.query tuner q in
          let dt = Float.of_int (Repro_telemetry.Trace.now_ns () - t0) *. 1e-9 in
          Histogram.record hist dt;
          cksum := checksum_fold !cksum res;
          if (i + 1) mod window = 0 then begin
            let fp' = fingerprint (Self_tuning.apex tuner) in
            changes := diff_size !fp fp' :: !changes;
            fp := fp'
          end)
        ph.Drift.ph_queries;
      let changes = List.rev !changes in
      let rtc =
        List.fold_left
          (fun (i, last) c -> (i + 1, if c > 0 then i + 1 else last))
          (0, 0) changes
        |> snd
      in
      let refreshes = List.length changes in
      let nodes, edges = Apex.stats (Self_tuning.apex tuner) in
      { r_name = ph.Drift.ph_name;
        r_refreshes = refreshes;
        r_changes = changes;
        r_rtc = rtc;
        r_stable_tail = refreshes - rtc;
        r_pages = index_pages (Self_tuning.apex tuner);
        r_extent_pages = extent_pages g (Self_tuning.apex tuner);
        r_nodes = nodes;
        r_edges = edges;
        r_entries = Hash_tree.n_entries (Apex.tree (Self_tuning.apex tuner));
        r_p50_us = Histogram.quantile hist 0.5 *. 1e6;
        r_p99_us = Histogram.quantile hist 0.99 *. 1e6;
        r_checksum = !cksum })
    phases

let naive_checksums g phases =
  List.map
    (fun ph ->
      Array.fold_left
        (fun h q -> checksum_fold h (Naive_eval.eval_query g q))
        0x811c9dc5 ph.Drift.ph_queries)
    phases

(* Measure one candidate path against a throwaway APEX0: its per-query
   unit cost (the exact scalar the policy scores on) and its result size
   (a proxy for the extent pages indexing it would occupy). Drives both
   the cast selection and the cost-scale calibration. *)
let make_measure g =
  let probe = Self_tuning.create ~log_capacity:16 ~refresh_every:1_000_000 g in
  let labels = Repro_graph.Data_graph.labels g in
  fun p ->
    let steps = List.map (Label.to_string labels) p in
    let cost = Cost.create () in
    let res = Self_tuning.query ~cost probe (Query.Qtype1 steps) in
    ( Policy.unit_cost ~extent_pages:cost.Cost.extent_pages
        ~extent_edges:cost.Cost.extent_edges ~join_edges:cost.Cost.join_edges,
      Array.length res )

(* The policy's absolute cost scale: the geometric mean of the *worst
   cases* — the cheapest expensive rotating path and the most expensive
   chatter path — so every expensive path lands above 1 and every chatter
   path below, which is where the score gate needs them. *)
let calibrate measure (cast : Drift.cast) =
  let costs paths = List.map (fun p -> fst (measure p)) paths in
  let ce = List.fold_left Float.min infinity (costs cast.Drift.exp_rot) in
  let cc = List.fold_left Float.max 0. (costs cast.Drift.chatter) in
  (ce, cc, sqrt (ce *. cc))

(* --- JSON --- *)

module Json = Repro_telemetry.Json

let int n = Json.Num (float_of_int n)

let phases_field reports =
  ( "phases",
    Json.Arr
      (List.map
         (fun r ->
           Json.Obj
             [ ("name", Json.Str r.r_name);
               ("refreshes", int r.r_refreshes);
               ("refreshes_to_convergence", int r.r_rtc);
               ("stable_tail", int r.r_stable_tail);
               ("state_changes", Json.Arr (List.map int r.r_changes));
               ("index_pages", int r.r_pages);
               ("extent_pages", int r.r_extent_pages);
               ("apex_nodes", int r.r_nodes);
               ("apex_edges", int r.r_edges);
               ("tree_entries", int r.r_entries);
               ("p50_us", Json.Num r.r_p50_us);
               ("p99_us", Json.Num r.r_p99_us);
               (* 63-bit FNV: a hex string, exact where a JSON number is not *)
               ("checksum", Json.Str (Printf.sprintf "%x" r.r_checksum)) ])
         reports) )

let run (config : Experiments.config) ~out =
  let spec =
    match config.Experiments.datasets with
    | spec :: _ -> Dataset.scaled spec config.Experiments.scale
    | [] -> failwith "drift: no dataset configured"
  in
  Printf.printf "drift: dataset %s (target %d nodes)\n%!" spec.Dataset.name
    spec.Dataset.target_nodes;
  let g = Dataset.build_graph spec in
  let measure = make_measure g in
  let cast = Drift.cast ~measure g in
  let ce, cc, cost_scale = calibrate measure cast in
  Printf.printf
    "drift: calibrated unit costs — expensive %.3f, cheap %.3f (ratio %.2f), \
     cost_scale %.3f\n\
     %!"
    ce cc (ce /. cc) cost_scale;
  let labels = Repro_graph.Data_graph.labels g in
  let show_role name paths =
    List.iter
      (fun p ->
        let c, size = measure p in
        Printf.printf "drift:   %-14s %-40s cost %8.3f result %5d\n%!" name
          (String.concat "/" (List.map (Label.to_string labels) p))
          c size)
      paths
  in
  show_role "exp_rot" cast.Drift.exp_rot;
  show_role "exp_boundary" cast.Drift.exp_boundary;
  show_role "diurnal" cast.Drift.diurnal;
  show_role "crowd" cast.Drift.crowd;
  show_role "chatter" cast.Drift.chatter;
  show_role "cheap_boundary" cast.Drift.cheap_boundary;
  show_role "noise" cast.Drift.noise;
  let phases = Drift.phases ~seed ~n_per_phase ~measure ~minsup g in
  let support = run_engine ~g ~phases ~policy:None in
  let policy_cfg =
    { Policy.min_support = minsup;
      decay = 0.6;
      hysteresis = 0.4;
      cost_weight = 1.0;
      cost_scale }
  in
  let policy_t = Policy.create ~config:policy_cfg () in
  let policy = run_engine ~g ~phases ~policy:(Some policy_t) in
  let naive = naive_checksums g phases in
  (* invariants *)
  let checks_ok =
    List.for_all2 (fun r n -> r.r_checksum = n) support naive
    && List.for_all2 (fun r n -> r.r_checksum = n) policy naive
  in
  let faster =
    List.for_all2 (fun p s -> p.r_rtc < s.r_rtc) policy support
  in
  let smaller = List.for_all2 (fun p s -> p.r_pages < s.r_pages) policy support in
  let stable = List.for_all (fun p -> p.r_stable_tail >= 2) policy in
  let doc =
    Json.Obj
      [ ("experiment", Json.Str "drift");
        ("dataset", Json.Str spec.Dataset.name);
        ( "config",
          Json.Obj
            [ ("seed", int seed);
              ("minsup", Json.Num minsup);
              ("window", int window);
              ("n_per_phase", int n_per_phase);
              ("scratch_page_size", int scratch_page_size);
              ("decay", Json.Num policy_cfg.Policy.decay);
              ("hysteresis", Json.Num policy_cfg.Policy.hysteresis);
              ("cost_weight", Json.Num policy_cfg.Policy.cost_weight);
              ("cost_scale", Json.Num cost_scale) ] );
        ( "calibration",
          Json.Obj [ ("expensive_unit_cost", Json.Num ce); ("cheap_unit_cost", Json.Num cc) ] );
        ("support", Json.Obj [ phases_field support ]);
        ( "policy",
          Json.Obj
            [ phases_field policy;
              ("total_promotions", int (Policy.total_promotions policy_t));
              ("total_evictions", int (Policy.total_evictions policy_t)) ] );
        ( "invariants",
          Json.Obj
            [ ("checksums_match", Json.Bool checks_ok);
              ("policy_converges_faster", Json.Bool faster);
              ("policy_smaller_index", Json.Bool smaller);
              ("policy_stable_tail", Json.Bool stable) ] ) ]
  in
  Option.iter (fun out -> Experiments.write_json out doc) out;
  List.iter2
    (fun s p ->
      Printf.printf
        "drift: %-12s support rtc %2d/%d pages %4d | policy rtc %2d/%d pages \
         %4d (tail %d) p50 %.1fus p99 %.1fus\n\
         %!"
        s.r_name s.r_rtc s.r_refreshes s.r_pages p.r_rtc p.r_refreshes
        p.r_pages p.r_stable_tail p.r_p50_us p.r_p99_us)
    support policy;
  if not checks_ok then failwith "drift: result checksums diverge from the naive oracle";
  if not faster then failwith "drift: policy did not converge in fewer refreshes";
  if not smaller then failwith "drift: policy index is not smaller";
  if not stable then failwith "drift: policy kept changing state after convergence"
