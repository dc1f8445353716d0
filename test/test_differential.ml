(* Differential testing: every index engine against the index-free oracle.

   Seeded random graphs from all three generator families (Play, Flix,
   Ged), random QTYPE1/QTYPE2/QTYPE3 workloads; APEX0, APEX(minSup), the
   strong DataGuide, the 1-index and the Index Fabric must all answer
   exactly like naive traversal — on a zero-fault pager, and (for the
   materialized APEX) on a pager injecting transient read corruption that
   the storage layer must detect and retry away. *)

module G = Repro_graph.Data_graph
module Query = Repro_pathexpr.Query
module Naive = Repro_pathexpr.Naive_eval
module Generate = Repro_workload.Generate
module Dataset = Repro_datagen.Dataset
module Apex = Repro_apex.Apex
module Apex_query = Repro_apex.Apex_query
module Fault = Repro_storage.Fault
module Pager = Repro_storage.Pager
module Buffer_pool = Repro_storage.Buffer_pool
module Io_stats = Repro_storage.Io_stats

let scale = 0.05

let specs = List.map (fun s -> Dataset.scaled s scale) Dataset.small

let queries_for rand g =
  Array.concat
    [ Generate.qtype1 ~n:40 rand g;
      Generate.qtype2 ~n:10 rand g;
      Generate.qtype3 ~n:15 rand g ]

(* --- zero-fault leg: all engines, materialized through a clean pager --- *)

let test_engines_agree spec () =
  let g = Dataset.build_graph spec in
  let rand = Random.State.make [| spec.Dataset.seed; 0xD1FF |] in
  let queries = queries_for rand g in
  let workload =
    Repro_harness.Env.compile_workload g
      (Generate.sample rand ~fraction:0.3 (Generate.qtype1 ~n:40 rand g))
  in
  let pager = Pager.create () in
  let pool = Buffer_pool.create pager ~capacity:256 in
  let apex0 = Apex.build g in
  Apex.materialize apex0 pool;
  let adapted = Apex.build_adapted g ~workload ~min_support:0.02 in
  Apex.materialize adapted pool;
  (* subset construction can blow up on irregular graphs — skipping is the
     documented behavior, not a failure of the differential *)
  let dataguide =
    match Repro_baselines.Dataguide.build g with
    | t ->
      Repro_baselines.Summary_index.materialize t pool;
      Some t
    | exception Failure _ -> None
  in
  let one_index = Repro_baselines.One_index.build g in
  Repro_baselines.Summary_index.materialize one_index pool;
  let fabric = Repro_baselines.Index_fabric.build g in
  Array.iter
    (fun q ->
      let expected = Naive.eval_query g q in
      let tag engine = Printf.sprintf "%s %s [%s]" spec.Dataset.name (Query.to_string q) engine in
      Alcotest.(check (array int)) (tag "apex0") expected (Apex_query.eval_query apex0 q);
      Alcotest.(check (array int)) (tag "apex-minsup") expected
        (Apex_query.eval_query adapted q);
      (match dataguide with
       | Some t ->
         Alcotest.(check (array int)) (tag "dataguide") expected
           (Repro_baselines.Summary_index.eval_query t q)
       | None -> ());
      Alcotest.(check (array int)) (tag "1-index") expected
        (Repro_baselines.Summary_index.eval_query one_index q);
      match Repro_baselines.Index_fabric.eval_query fabric q with
      | Some got -> Alcotest.(check (array int)) (tag "fabric") expected got
      | None -> ())
    queries

(* --- fault-injected leg: transient read corruption must be healed --- *)

let test_fault_injected spec () =
  let g = Dataset.build_graph spec in
  let rand = Random.State.make [| spec.Dataset.seed; 0xFA17 |] in
  let queries = queries_for rand g in
  let pager = Pager.create ~page_size:4096 () in
  let fault = Fault.create ~seed:7 () in
  Pager.set_fault pager (Some fault);
  let pool = Buffer_pool.create pager ~capacity:64 in
  let apex = Apex.build g in
  Apex.materialize apex pool;
  Fault.arm_random fault ~prob:0.05 ~kinds:[ Fault.Read_flip; Fault.Short_read ];
  let check_all () =
    Array.iter
      (fun q ->
        let expected = Naive.eval_query g q in
        Alcotest.(check (array int))
          (Printf.sprintf "%s %s [apex under faults]" spec.Dataset.name (Query.to_string q))
          expected (Apex_query.eval_query apex q))
      queries
  in
  check_all ();
  (* a second cold-cache pass: plenty of disk reads, so the policy is
     statistically certain to have fired *)
  Buffer_pool.flush pool;
  check_all ();
  let stats = Pager.stats pager in
  Alcotest.(check bool) "read faults fired" true (Fault.injections fault > 0);
  Alcotest.(check bool) "retries healed corrupted reads" true (stats.Io_stats.read_retries > 0)

(* --- QTYPE2 over attribute labels --- *)

(* The workload generator never puts an attribute label into a QTYPE2 pair,
   so these are built by hand from the document: [//a//@x] for the element
   owning an [@x] edge and that element's parent, [//@x//b] for the labels
   one and two steps below the attribute node. An attribute [a] takes the
   rewrite plan even on a document forest. *)
let attribute_pairs g =
  let labels = G.labels g in
  let name = Repro_graph.Label.to_string labels in
  let pairs = ref [] in
  let add a b = if a >= 0 && b >= 0 then pairs := (name a, name b) :: !pairs in
  G.iter_edges g (fun u l v ->
      if Repro_graph.Label.is_attribute labels l then begin
        add (G.tree_label g u) l;
        if G.tree_parent g u >= 0 then add (G.tree_label g (G.tree_parent g u)) l;
        G.iter_out g v (fun m w ->
            add l m;
            G.iter_out g w (fun m' _ -> add l m'))
      end);
  List.sort_uniq compare !pairs

let test_attribute_q2 spec () =
  let g = Dataset.build_graph spec in
  let labels = G.labels g in
  let is_attr s =
    match Repro_graph.Label.find labels s with
    | Some l -> Repro_graph.Label.is_attribute labels l
    | None -> false
  in
  let apex = Apex.build g in
  let answered_under = ref 0 and answered_from = ref 0 in
  List.iter
    (fun (sa, sb) ->
      let q = Query.Qtype2 (sa, sb) in
      match Query.compile labels q with
      | Some (Query.C2 (a, b) as c) ->
        let tag plan = Printf.sprintf "%s %s [%s]" spec.Dataset.name (Query.to_string q) plan in
        let expected = Naive.eval g c in
        Alcotest.(check (array int)) (tag "default plan") expected (Apex_query.eval apex c);
        Alcotest.(check (array int)) (tag "eval_q2_rewrite") expected
          (Apex_query.eval_q2_rewrite apex a b);
        if Array.length expected > 0 then
          if is_attr sa then incr answered_from else incr answered_under
      | Some _ | None -> Alcotest.failf "%s did not compile" (Query.to_string q))
    (attribute_pairs g);
  (* neither direction is vacuous: some query of each kind has answers *)
  Alcotest.(check bool) "some //a//@x answered" true (!answered_under > 0);
  Alcotest.(check bool) "some //@x//b answered" true (!answered_from > 0)

let () =
  let cases =
    List.concat_map
      (fun spec ->
        [ Alcotest.test_case (spec.Dataset.name ^ " engines agree") `Slow
            (test_engines_agree spec);
          Alcotest.test_case (spec.Dataset.name ^ " healed under read faults") `Slow
            (test_fault_injected spec)
        ])
      specs
  in
  let attribute_cases =
    List.filter_map
      (fun spec ->
        if List.mem spec.Dataset.name [ "Ged01"; "Flix01" ] then
          Some
            (Alcotest.test_case (spec.Dataset.name ^ " attribute-label QTYPE2") `Slow
               (test_attribute_q2 spec))
        else None)
      specs
  in
  Alcotest.run "differential"
    [ ("engines-vs-oracle", cases); ("attribute-q2", attribute_cases) ]
