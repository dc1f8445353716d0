open Repro_apex
module F = Test_support.Fixtures
module G = Repro_graph.Data_graph
module Edge_set = Repro_graph.Edge_set
module Label = Repro_graph.Label
module Label_path = Repro_pathexpr.Label_path
module Query = Repro_pathexpr.Query
module Naive = Repro_pathexpr.Naive_eval

let edge_set = Alcotest.testable Edge_set.pp Edge_set.equal

(* the Figure 12 mini graph: root -A-> n1; n1 -B-> n2; n2 -D-> n3; n1 -D-> n4 *)
let fig12 () =
  let b = G.Builder.create () in
  let n () = G.Builder.add_node b in
  let root = n () and n1 = n () and n2 = n () and n3 = n () and n4 = n () in
  let e = G.Builder.add_edge b in
  e root "A" n1;
  e n1 "B" n2;
  e n2 "D" n3;
  e n1 "D" n4;
  G.Builder.build ~root b

let lp g names = F.path g names

(* --- APEX0 --- *)

let test_apex0_movie_db () =
  let g = F.movie_db () in
  let apex = Apex.build g in
  let nodes, edges = Apex.stats apex in
  (* one node per label + xroot *)
  Alcotest.(check int) "nodes = labels + 1" 8 nodes;
  Alcotest.(check bool) "has edges" true (edges > 0);
  (* every label node's extent is exactly the label's edge group *)
  List.iter
    (fun name ->
      let l = F.label g name in
      match Hash_tree.lookup_slot (Apex.tree apex) ~rev_path:[ l ] with
      | Some slot ->
        (match Hash_tree.slot_get slot with
         | Some node ->
           Alcotest.check edge_set
             (Printf.sprintf "extent(%s)" name)
             (G.edges_with_label g l) node.Gapex.extent
         | None -> Alcotest.failf "no node for %s" name)
      | None -> Alcotest.failf "no slot for %s" name)
    [ "actor"; "name"; "director"; "movie"; "title"; "@actor"; "@movie" ]

let test_apex0_length2_paths_exist_in_data () =
  (* Theorem 2: every length-2 label path in G_APEX is in G_XML *)
  let g = F.movie_db () in
  let apex = Apex.build g in
  List.iter
    (fun (x : Gapex.node) ->
      List.iter
        (fun (l1, (y : Gapex.node)) ->
          List.iter
            (fun (l2, (_ : Gapex.node)) ->
              let t = G.reachable_by_label_path g [ l1; l2 ] in
              if Edge_set.is_empty t then
                Alcotest.failf "label path %d.%d in G_APEX but not in data" l1 l2;
              ignore y)
            (Gapex.out_edges y))
        (Gapex.out_edges x))
    (Gapex.reachable (Apex.summary apex))

(* --- Figure 7 / Figure 12 walkthrough --- *)

let test_fig12_adaptation () =
  let g = fig12 () in
  let a = F.label g "A" and b = F.label g "B" and d = F.label g "D" in
  let apex = Apex.build g in
  (* APEX0 extents *)
  let extent path =
    match Hash_tree.lookup_slot (Apex.tree apex) ~rev_path:(List.rev path) with
    | Some slot ->
      (match Hash_tree.slot_get slot with
       | Some node -> node.Gapex.extent
       | None -> Edge_set.empty)
    | None -> Edge_set.empty
  in
  Alcotest.check edge_set "APEX0 T(D)" (Edge_set.of_list [ (1, 4); (2, 3) ]) (extent [ d ]);
  (* workload {A.D, A.D, B}, minSup 0.6 -> A.D frequent (Figure 7 semantics) *)
  Apex.refresh apex ~workload:[ [ a; d ]; [ a; d ]; [ b ] ] ~min_support:0.6;
  Alcotest.(check bool) "invariant" true (Hash_tree.check_invariant (Apex.tree apex));
  Alcotest.check edge_set "T^R(A.D)" (Edge_set.of_list [ (1, 4) ]) (extent [ a; d ]);
  Alcotest.check edge_set "T^R(remainder.D)" (Edge_set.of_list [ (2, 3) ]) (extent [ d ]);
  Alcotest.check edge_set "T(A) unchanged" (Edge_set.of_list [ (0, 1) ]) (extent [ a ]);
  (* workload changes to favour B.D: A.D is dropped, B.D appears *)
  Apex.refresh apex ~workload:[ [ b; d ]; [ b; d ]; [ a ] ] ~min_support:0.6;
  Alcotest.check edge_set "T^R(B.D)" (Edge_set.of_list [ (2, 3) ]) (extent [ b; d ]);
  Alcotest.check edge_set "T^R(remainder.D) after swap" (Edge_set.of_list [ (1, 4) ])
    (extent [ d ]);
  (* A.D slot now resolves to the remainder *)
  Alcotest.check edge_set "A.D resolves to remainder" (Edge_set.of_list [ (1, 4) ])
    (extent [ a; d ])

let test_refresh_empty_workload_degenerates () =
  let g = F.movie_db () in
  let apex0 = Apex.build g in
  let adapted =
    Apex.build_adapted g
      ~workload:[ lp g [ "actor"; "name" ]; lp g [ "actor"; "name" ] ]
      ~min_support:0.5
  in
  let n_adapted, _ = Apex.stats adapted in
  let n0, e0 = Apex.stats apex0 in
  Alcotest.(check bool) "adaptation adds nodes" true (n_adapted > n0);
  (* an empty workload prunes everything back to APEX0 shape *)
  Apex.refresh adapted ~workload:[] ~min_support:0.5;
  let n', e' = Apex.stats adapted in
  Alcotest.(check int) "nodes back to APEX0" n0 n';
  Alcotest.(check int) "edges back to APEX0" e0 e'

(* --- query evaluation vs the naive evaluator on the cyclic fixture --- *)

let movie_queries =
  [ "//actor/name";
    "//name";
    "//title";
    "//movie/title";
    "//director/movie/title";
    "//movie/@actor=>actor/name";
    "//actor/@movie=>movie/title";
    "//@movie=>movie";
    "//director//title";
    "//director//name";
    "//actor//title";
    "//movie//title";
    {|//name[text()="Kevin"]|};
    {|//movie/title[text()="Waterworld"]|};
    {|//movie/title[text()="Nope"]|}
  ]

let check_queries_against_naive apex queries =
  let g = Apex.graph apex in
  List.iter
    (fun qs ->
      match Query.parse qs with
      | Error m -> Alcotest.failf "parse %s: %s" qs m
      | Ok q ->
        Alcotest.(check (array int))
          qs
          (Naive.eval_query g q)
          (Apex_query.eval_query apex q))
    queries

let test_queries_apex0 () =
  let g = F.movie_db () in
  check_queries_against_naive (Apex.build g) movie_queries

let test_queries_adapted () =
  let g = F.movie_db () in
  let workload =
    [ lp g [ "actor"; "name" ];
      lp g [ "actor"; "name" ];
      lp g [ "movie"; "title" ];
      lp g [ "director"; "movie" ];
      lp g [ "@actor"; "actor" ]
    ]
  in
  List.iter
    (fun min_support ->
      let apex = Apex.build_adapted g ~workload ~min_support in
      Alcotest.(check bool) "invariant" true (Hash_tree.check_invariant (Apex.tree apex));
      check_queries_against_naive apex movie_queries)
    [ 0.1; 0.4; 0.9 ]

let test_queries_materialized () =
  let g = F.movie_db () in
  let apex =
    Apex.build_adapted g ~workload:[ lp g [ "actor"; "name" ] ] ~min_support:0.5
  in
  let pager = Repro_storage.Pager.create ~page_size:256 () in
  let pool = Repro_storage.Buffer_pool.create pager ~capacity:8 in
  Apex.materialize apex pool;
  check_queries_against_naive apex movie_queries;
  (* extent loads are charged on an approximate path (its sweep re-joins
     extents every time): the earlier queries warmed the decoded LRU, so
     this one is served as cache hits — edges stream, pages don't. The
     exact path [actor.name] is answered from the endpoint memo and would
     charge nothing at all. *)
  let cost = Repro_storage.Cost.create () in
  ignore (Apex_query.eval_query ~cost apex (Query.Qtype1 [ "movie"; "title" ]));
  Alcotest.(check bool) "edges charged" true (cost.Repro_storage.Cost.extent_edges > 0);
  Alcotest.(check bool) "cache hits recorded" true
    (cost.Repro_storage.Cost.extent_cache_hits > 0);
  (* a cold store (fresh materialization) pays page I/O *)
  let pager = Repro_storage.Pager.create ~page_size:256 () in
  let pool = Repro_storage.Buffer_pool.create pager ~capacity:8 in
  Apex.materialize apex pool;
  let cost = Repro_storage.Cost.create () in
  ignore (Apex_query.eval_query ~cost apex (Query.Qtype1 [ "actor"; "name" ]));
  Alcotest.(check bool) "pages charged when cold" true
    (cost.Repro_storage.Cost.extent_pages > 0)

(* a QTYPE2 evaluation's result and the distinct rewritings it reported *)
let with_rewritings eval =
  let seen = ref [] in
  let result = eval (fun seq -> seen := seq :: !seen) in
  (result, List.sort_uniq Label_path.compare !seen)

let test_q2_plans_agree () =
  (* the structural plan (taken on a document forest), the paper's rewrite
     search and the naive oracle agree on every label pair, attribute
     labels and empty answers included, over APEX0 and an adapted index;
     on movie_db (a DAG: the movie has two element parents) the default
     plan falls back to the rewrite search *)
  let check ?(adapt = [ "actor"; "name" ]) g =
    let labels = G.labels g in
    let names = List.init (Label.count labels) (Label.to_string labels) in
    let check apex =
      List.iter
        (fun la ->
          List.iter
            (fun lb ->
              match Query.compile labels (Query.Qtype2 (la, lb)) with
              | Some (Query.C2 (a, b) as c) ->
                let q = Printf.sprintf "//%s//%s" la lb in
                let expected = Naive.eval g c in
                let default, s_default =
                  with_rewritings (fun on_sequence -> Apex_query.eval ~on_sequence apex c)
                in
                let rewrite, s_rewrite =
                  with_rewritings (fun on_sequence ->
                      Apex_query.eval_q2_rewrite ~on_sequence apex a b)
                in
                Alcotest.(check (array int)) (q ^ " default plan") expected default;
                Alcotest.(check (array int)) (q ^ " rewrite plan") expected rewrite;
                Alcotest.(check (list (list int))) (q ^ " rewritings") s_rewrite s_default
              | Some _ | None -> Alcotest.failf "label pair %s//%s did not compile" la lb)
            names)
        names
    in
    check (Apex.build g);
    check (Apex.build_adapted g ~workload:[ lp g adapt ] ~min_support:0.5)
  in
  Alcotest.(check bool) "movie_db is not a forest" false (G.is_forest (F.movie_db ()));
  Alcotest.(check bool) "movie_doc is a forest" true (G.is_forest (F.movie_doc ()));
  check (F.movie_db ());
  check (F.movie_doc ());
  (* a reference to the document root makes an attribute node the root's
     tree parent: the walk must stop there, or it would climb back into
     the document (and cycle); the nested [a] gives [//a//c] two
     rewritings through one result *)
  let root_ref =
    G.of_document ~idref_attrs:[ "ref" ]
      (Repro_xml.Xml_parser.parse_string
         {|<r id="r0"><a><b ref="r0"><a><c/></a></b></a><d/></r>|})
  in
  Alcotest.(check bool) "root_ref is a forest" true (G.is_forest root_ref);
  check ~adapt:[ "a"; "b" ] root_ref

let test_q2_rewritings_agree () =
  (* the rewritings fed to the query log are the same set whether the
     structural plan reads them off its results or the rewrite search
     matches them on G_APEX, on APEX0 and on an adapted index *)
  let module Dataset = Repro_datagen.Dataset in
  let module Generate = Repro_workload.Generate in
  let several = ref 0 in
  List.iter
    (fun (name, scale) ->
      let spec = Dataset.scaled (Option.get (Dataset.by_name name)) scale in
      let g = Dataset.build_graph spec in
      Alcotest.(check bool) (name ^ " is a forest") true (G.is_forest g);
      let rand = Random.State.make [| spec.Dataset.seed |] in
      let workload =
        Repro_harness.Env.compile_workload g (Generate.qtype1 ~n:200 rand g)
      in
      let queries = Generate.qtype2 ~n:40 rand g in
      List.iter
        (fun apex ->
          Array.iter
            (fun q ->
              match Query.compile (G.labels g) q with
              | Some (Query.C2 (a, b) as c) ->
                let tag = Printf.sprintf "%s %s" name (Query.to_string q) in
                let r_tree, s_tree = with_rewritings (fun on_sequence -> Apex_query.eval ~on_sequence apex c) in
                let r_rw, s_rw =
                  with_rewritings (fun on_sequence -> Apex_query.eval_q2_rewrite ~on_sequence apex a b)
                in
                Alcotest.(check (array int)) (tag ^ " results") r_rw r_tree;
                Alcotest.(check (array int)) (tag ^ " naive") (Naive.eval g c) r_tree;
                Alcotest.(check (list (list int))) (tag ^ " rewritings") s_rw s_tree;
                if List.compare_length_with s_tree 1 > 0 then incr several
              | Some _ | None -> Alcotest.failf "%s: %s did not compile" name (Query.to_string q))
            queries)
        [ Apex.build g; Apex.build_adapted g ~workload ~min_support:0.01 ])
    [ ("Ged01", 0.2); ("Flix01", 0.1); ("shakes_11", 0.05) ];
  Alcotest.(check bool) "some query has several rewritings" true (!several > 0)

let test_queries_materialized_varint () =
  (* gap-varint compressed extents change cost, never results: small
     pages split blobs across pages and a two-frame pool recycles its
     frames while they decode *)
  let g = F.movie_db () in
  let apex =
    Apex.build_adapted g ~workload:[ lp g [ "actor"; "name" ] ] ~min_support:0.5
  in
  let pager = Repro_storage.Pager.create ~page_size:64 () in
  let pool = Repro_storage.Buffer_pool.create pager ~capacity:2 in
  Apex.materialize ~codec:`Block apex pool;
  check_queries_against_naive apex movie_queries

let test_qtype3_with_table () =
  let g = F.movie_db () in
  let apex = Apex.build g in
  let pager = Repro_storage.Pager.create ~page_size:256 () in
  let pool = Repro_storage.Buffer_pool.create pager ~capacity:8 in
  let table = Repro_storage.Data_table.build pool g in
  let cost = Repro_storage.Cost.create () in
  let result =
    Apex_query.eval_query ~cost ~table apex (Query.Qtype3 ([ "name" ], "Kevin"))
  in
  Alcotest.(check (array int)) "value query" [| 2 |] result;
  Alcotest.(check bool) "table probed" true (cost.Repro_storage.Cost.table_pages > 0)

(* A value longer than a data-table page: the table plan, the plan without
   a table and the naive evaluator must agree on it. *)
let test_qtype3_long_value () =
  let long = String.make 9_000 'x' in
  let g =
    G.of_document
      (Repro_xml.Xml_parser.parse_string ("<a><b>" ^ long ^ "</b><b>short</b></a>"))
  in
  let apex = Apex.build g in
  let pool = Repro_storage.Buffer_pool.create (Repro_storage.Pager.create ()) ~capacity:8 in
  let table = Repro_storage.Data_table.build pool g in
  List.iter
    (fun value ->
      let q = Query.Qtype3 ([ "b" ], value) in
      let naive = Naive.eval_query g q in
      Alcotest.(check int) "naive finds one" 1 (Array.length naive);
      Alcotest.(check (array int)) "table plan" naive (Apex_query.eval_query ~table apex q);
      Alcotest.(check (array int)) "no-table plan" naive (Apex_query.eval_query apex q))
    [ long; "short" ];
  (* same length, last byte differs: compared across the overflow pages *)
  Alcotest.(check (array int)) "near miss" [||]
    (Apex_query.eval_query ~table apex (Query.Qtype3 ([ "b" ], String.make 8_999 'x' ^ "y")))

let test_degenerate_graphs () =
  (* a single node, no edges *)
  let b = G.Builder.create () in
  let root = G.Builder.add_node b in
  let g = G.Builder.build ~root b in
  let apex = Apex.build g in
  let n, e = Apex.stats apex in
  Alcotest.(check (pair int int)) "only xroot" (1, 0) (n, e);
  (* a chain with repeated labels (self-similar suffixes) *)
  let b = G.Builder.create () in
  let n0 = G.Builder.add_node b in
  let n1 = G.Builder.add_node b in
  let n2 = G.Builder.add_node b in
  let n3 = G.Builder.add_node b in
  G.Builder.add_edge b n0 "x" n1;
  G.Builder.add_edge b n1 "x" n2;
  G.Builder.add_edge b n2 "x" n3;
  let g = G.Builder.build ~root:n0 b in
  let apex = Apex.build_adapted g ~workload:[ [ 0; 0 ]; [ 0; 0 ] ] ~min_support:0.5 in
  Alcotest.(check (array int)) "//x" [| 1; 2; 3 |] (Apex_query.eval apex (Query.C1 [ 0 ]));
  Alcotest.(check (array int)) "//x/x" [| 2; 3 |] (Apex_query.eval apex (Query.C1 [ 0; 0 ]));
  Alcotest.(check (array int)) "//x/x/x" [| 3 |] (Apex_query.eval apex (Query.C1 [ 0; 0; 0 ]));
  Alcotest.(check (array int)) "//x//x" [| 2; 3 |] (Apex_query.eval apex (Query.C2 (0, 0)))

let test_spec_rejects_cyclic () =
  (* the declarative reference is only defined on acyclic data *)
  let g = F.movie_db () in
  match Apex_spec.target_edge_sets g ~required:[ [ F.label g "name" ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on cyclic data"

let test_unknown_label_queries () =
  let g = F.movie_db () in
  let apex = Apex.build g in
  Alcotest.(check (array int)) "q1" [||] (Apex_query.eval_query apex (Query.Qtype1 [ "zzz" ]));
  Alcotest.(check (array int)) "q2" [||]
    (Apex_query.eval_query apex (Query.Qtype2 ("zzz", "name")));
  Alcotest.(check (array int)) "q3" [||]
    (Apex_query.eval_query apex (Query.Qtype3 ([ "zzz" ], "v")))

(* --- spec equivalence and properties on random DAGs --- *)

let workload_of_dag rand g =
  (* random walks turned into label paths; may be empty for degenerate graphs *)
  if G.out_degree g (G.root g) = 0 then []
  else
    List.init 6 (fun _ ->
        List.map fst (Repro_workload.Simple_paths.random_walk rand ~max_length:5 g))

let prop_spec_equivalence =
  QCheck.Test.make ~count:120 ~name:"operational extents = declarative T^R" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let rand = Random.State.make [| Hashtbl.hash spec |] in
      let workload = workload_of_dag rand g in
      QCheck.assume (workload <> []);
      let min_support = 0.34 in
      let apex = Apex.build_adapted g ~workload ~min_support in
      let actual = Apex_spec.apex_extents apex in
      let required = Apex_spec.required_of_workload g ~workload ~min_support in
      let expected = Apex_spec.target_edge_sets g ~required in
      let show l =
        String.concat "; "
          (List.map
             (fun (p, e) ->
               Printf.sprintf "%s=%s"
                 (String.concat "." (List.map string_of_int p))
                 (Format.asprintf "%a" Edge_set.pp e))
             l)
      in
      if
        List.length actual = List.length expected
        && List.for_all2
             (fun (p1, e1) (p2, e2) -> Label_path.equal p1 p2 && Edge_set.equal e1 e2)
             actual expected
      then true
      else
        QCheck.Test.fail_reportf "mismatch:@.actual:   %s@.expected: %s" (show actual)
          (show expected))

let prop_incremental_equals_fresh =
  QCheck.Test.make ~count:100 ~name:"incremental refresh = fresh rebuild" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let rand = Random.State.make [| Hashtbl.hash spec + 7 |] in
      let w1 = workload_of_dag rand g in
      let w2 = workload_of_dag rand g in
      QCheck.assume (w1 <> [] && w2 <> []);
      (* incremental: adapt to w1, then w2; fresh: adapt to w2 only *)
      let incremental = Apex.build_adapted g ~workload:w1 ~min_support:0.3 in
      Apex.refresh incremental ~workload:w2 ~min_support:0.3;
      let fresh = Apex.build_adapted g ~workload:w2 ~min_support:0.3 in
      let a = Apex_spec.apex_extents incremental in
      let b = Apex_spec.apex_extents fresh in
      List.length a = List.length b
      && List.for_all2
           (fun (p1, e1) (p2, e2) -> Label_path.equal p1 p2 && Edge_set.equal e1 e2)
           a b)

let prop_queries_match_naive_on_dags =
  QCheck.Test.make ~count:120 ~name:"APEX query results = naive traversal" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let rand = Random.State.make [| Hashtbl.hash spec + 13 |] in
      let workload = workload_of_dag rand g in
      QCheck.assume (workload <> []);
      let apex = Apex.build_adapted g ~workload ~min_support:0.3 in
      let tbl = G.labels g in
      let all_labels = List.init (Repro_graph.Label.count tbl) (fun i -> i) in
      (* QTYPE1: all length-1..3 paths over the alphabet (alphabet ≤ 4) *)
      let q1s =
        List.concat_map
          (fun a ->
            [ a ] :: List.concat_map (fun b -> [ [ a; b ] ]) all_labels)
          all_labels
      in
      let ok_q1 =
        List.for_all
          (fun p -> Naive.eval g (Query.C1 p) = Apex_query.eval apex (Query.C1 p))
          q1s
      in
      let ok_q2 =
        List.for_all
          (fun a ->
            List.for_all
              (fun b -> Naive.eval g (Query.C2 (a, b)) = Apex_query.eval apex (Query.C2 (a, b)))
              all_labels)
          all_labels
      in
      ok_q1 && ok_q2)

let prop_invariant_after_refresh =
  QCheck.Test.make ~count:100 ~name:"hash-tree invariant holds after refreshes" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let rand = Random.State.make [| Hashtbl.hash spec + 99 |] in
      let apex = Apex.build g in
      let ok = ref (Hash_tree.check_invariant (Apex.tree apex)) in
      for _ = 1 to 3 do
        let w = workload_of_dag rand g in
        if w <> [] then begin
          Apex.refresh apex ~workload:w ~min_support:0.4;
          ok := !ok && Hash_tree.check_invariant (Apex.tree apex)
        end
      done;
      !ok)

let prop_theorem2_on_dags =
  QCheck.Test.make ~count:80 ~name:"Theorem 2: length-2 G_APEX paths exist in data" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let rand = Random.State.make [| Hashtbl.hash spec + 21 |] in
      let workload = workload_of_dag rand g in
      QCheck.assume (workload <> []);
      let apex = Apex.build_adapted g ~workload ~min_support:0.3 in
      List.for_all
        (fun (x : Gapex.node) ->
          List.for_all
            (fun ((l1 : int), (y : Gapex.node)) ->
              List.for_all
                (fun ((l2 : int), (_ : Gapex.node)) ->
                  not (Edge_set.is_empty (G.reachable_by_label_path g [ l1; l2 ])))
                (Gapex.out_edges y))
            (Gapex.out_edges x))
        (Gapex.reachable (Apex.summary apex)))

let () =
  Alcotest.run "apex"
    [ ( "apex0",
        [ Alcotest.test_case "movie_db structure" `Quick test_apex0_movie_db;
          Alcotest.test_case "theorem 2 on movie_db" `Quick test_apex0_length2_paths_exist_in_data
        ] );
      ( "adaptation",
        [ Alcotest.test_case "figure 12 walkthrough" `Quick test_fig12_adaptation;
          Alcotest.test_case "empty workload degenerates" `Quick test_refresh_empty_workload_degenerates
        ] );
      ( "queries",
        [ Alcotest.test_case "APEX0 vs naive" `Quick test_queries_apex0;
          Alcotest.test_case "adapted vs naive" `Quick test_queries_adapted;
          Alcotest.test_case "materialized vs naive" `Quick test_queries_materialized;
          Alcotest.test_case "Q2 plans agree" `Quick test_q2_plans_agree;
          Alcotest.test_case "Q2 rewritings agree" `Quick test_q2_rewritings_agree;
          Alcotest.test_case "varint-materialized vs naive" `Quick test_queries_materialized_varint;
          Alcotest.test_case "QTYPE3 via data table" `Quick test_qtype3_with_table;
          Alcotest.test_case "QTYPE3 value longer than a page" `Quick test_qtype3_long_value;
          Alcotest.test_case "unknown labels" `Quick test_unknown_label_queries;
          Alcotest.test_case "spec rejects cyclic data" `Quick test_spec_rejects_cyclic;
          Alcotest.test_case "degenerate graphs" `Quick test_degenerate_graphs
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_spec_equivalence;
          QCheck_alcotest.to_alcotest prop_incremental_equals_fresh;
          QCheck_alcotest.to_alcotest prop_queries_match_naive_on_dags;
          QCheck_alcotest.to_alcotest prop_invariant_after_refresh;
          QCheck_alcotest.to_alcotest prop_theorem2_on_dags
        ] )
    ]
