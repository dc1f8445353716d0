(* Data-update operations: graph-level semantics and incremental index
   maintenance equivalence against from-scratch rebuilds. Node ids below
   refer to the movie_db fixture map in test/support/fixtures.ml. *)

module F = Test_support.Fixtures
module G = Repro_graph.Data_graph
module Label = Repro_graph.Label
module Edge_set = Repro_graph.Edge_set
module Update = Repro_update.Update
module Apex = Repro_apex.Apex
module Apex_query = Repro_apex.Apex_query
module Gapex = Repro_apex.Gapex
module Query = Repro_pathexpr.Query
module Naive = Repro_pathexpr.Naive_eval
module X = Repro_xml.Xml_tree

(* --- graph-level operations --- *)

let test_delete_director () =
  let g = F.movie_db () in
  (* director 5's tree child is its name leaf 8; movie 6's document parent
     is the root (root's edge came first), so 6 survives *)
  let g', removed = G.delete_subtree g ~node:5 in
  Alcotest.(check int) "nids stay allocated" (G.n_nodes g) (G.n_nodes g');
  Alcotest.(check int) "three edges removed" (G.n_edges g - 3) (G.n_edges g');
  Alcotest.(check int) "removed edges reported" 3 (List.length removed);
  Alcotest.(check int) "director row emptied" 0 (G.out_degree g' 5);
  Alcotest.(check (option string)) "leaf value dropped" None (G.value g' 8);
  Alcotest.(check int) "movie kept its row" (G.out_degree g 6) (G.out_degree g' 6);
  (* the old graph is untouched *)
  Alcotest.(check int) "old edge count intact" 14 (G.n_edges g)

let test_delete_actor_cascades_refs () =
  let g = F.movie_db () in
  (* actor 1 owns @movie node 10; deleting it must also sever the inbound
     reference edge 9 --actor--> 1 *)
  let g', removed = G.delete_subtree g ~node:1 in
  (* root->1, 1->2, 1->@10, 10->6, 9->1 *)
  Alcotest.(check int) "five edges removed" 5 (List.length removed);
  Alcotest.(check int) "edge count drops" (G.n_edges g - 5) (G.n_edges g');
  Alcotest.(check bool) "inbound ref gone" true
    (List.exists (fun (u, _, v) -> u = 9 && v = 1) removed);
  Alcotest.(check int) "attr node 10 emptied" 0 (G.out_degree g' 10)

let test_delete_root_raises () =
  let g = F.movie_db () in
  (match G.delete_subtree g ~node:(G.root g) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument on root")

let test_add_ref_edge () =
  let g = F.movie_db () in
  (* director 5 gains a @movie reference to actor 3 (document tag "actor") *)
  let g', added = G.add_ref_edge g ~owner:5 ~attr:"movie" ~target:3 in
  Alcotest.(check int) "one fresh attr node" (G.n_nodes g + 1) (G.n_nodes g');
  Alcotest.(check int) "two edges added" (G.n_edges g + 2) (G.n_edges g');
  Alcotest.(check int) "both reported" 2 (List.length added);
  let labels = G.labels g' in
  (match added with
   | [ (o, l1, a); (a', l2, tgt) ] ->
     Alcotest.(check int) "owner" 5 o;
     Alcotest.(check string) "attr label" "@movie" (Label.to_string labels l1);
     Alcotest.(check int) "fresh node is the link" a a';
     Alcotest.(check string) "ref labeled by target tag" "actor" (Label.to_string labels l2);
     Alcotest.(check int) "target" 3 tgt;
     (* the fresh attr node's first (tree) in-edge is the owner's, keeping
        the tree-edge-first convention delete_subtree depends on *)
     Alcotest.(check int) "attr node is newest nid" (G.n_nodes g) a
   | _ -> Alcotest.fail "expected exactly two added edges");
  (match G.add_ref_edge g ~owner:5 ~attr:"movie" ~target:(G.root g) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "root has no document tag to label the ref with")

let test_remove_ref_edge () =
  let g = F.movie_db () in
  (* @actor node 9 holds two refs (to 1 and 3) owned by movie 6; removing
     one keeps the @actor edge, removing the last cascades it *)
  let g1, removed1 = G.remove_ref_edge g ~owner:6 ~attr:"actor" ~target:1 in
  Alcotest.(check int) "one edge removed" 1 (List.length removed1);
  Alcotest.(check int) "attr edge kept" (G.n_edges g - 1) (G.n_edges g1);
  let g2, removed2 = G.remove_ref_edge g1 ~owner:6 ~attr:"actor" ~target:3 in
  Alcotest.(check int) "ref and attr edge removed" 2 (List.length removed2);
  Alcotest.(check int) "attr node orphaned" 0 (G.out_degree g2 9);
  (match G.remove_ref_edge g2 ~owner:6 ~attr:"actor" ~target:3 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument on missing reference")

let test_apply_graph_insert_delta () =
  let g = F.movie_db () in
  let fragment =
    X.element
      ~children:
        [ X.Element (X.element ~children:[ X.Text "SF" ] "genre");
          X.Element (X.element ~children:[ X.Text "1995" ] "year")
        ]
      "info"
  in
  let { Update.graph = g'; added; removed } =
    Update.apply_graph g (Update.Insert_subtree { parent = 6; fragment })
  in
  Alcotest.(check int) "no removals" 0 (List.length removed);
  Alcotest.(check int) "delta matches edge-count growth" (G.n_edges g' - G.n_edges g)
    (List.length added);
  List.iter
    (fun (u, l, v) ->
      let present = ref false in
      G.iter_out g' u (fun l' v' -> if l = l' && v = v' then present := true);
      Alcotest.(check bool) "added edge present" true !present)
    added

(* --- incremental maintenance ≡ rebuild --- *)

(* every non-attribute label as a QTYPE1, some longer paths, a QTYPE2 and a
   QTYPE3: broad enough that a wrong extent anywhere shows up *)
let battery g =
  let labels = G.labels g in
  let names = ref [] in
  for l = 0 to Label.count labels - 1 do
    let s = Label.to_string labels l in
    if String.length s > 0 && s.[0] <> '@' then names := s :: !names
  done;
  List.map (fun n -> Query.Qtype1 [ n ]) !names
  @ [ Query.Qtype1 [ "actor"; "name" ];
      Query.Qtype1 [ "movie"; "title" ];
      Query.Qtype1 [ "director"; "movie"; "title" ];
      Query.Qtype1 [ "movie"; "actor"; "name" ];
      Query.Qtype2 ("director", "title");
      Query.Qtype2 ("movie", "name");
      Query.Qtype3 ([ "name" ], "Kevin")
    ]

let check_equiv msg apex =
  let g = Apex.graph apex in
  let rebuilt = Apex.build g in
  List.iter
    (fun q ->
      let expected = Naive.eval_query g q in
      Alcotest.(check (array int))
        (Printf.sprintf "%s: %s [maintained]" msg (Query.to_string q))
        expected
        (Apex_query.eval_query apex q);
      Alcotest.(check (array int))
        (Printf.sprintf "%s: %s [rebuilt]" msg (Query.to_string q))
        expected
        (Apex_query.eval_query rebuilt q))
    (battery g)

let fragment_small =
  X.element
    ~children:[ X.Element (X.element ~children:[ X.Text "Nichols" ] "name") ]
    "director"

let test_maintain_insert () =
  let apex = Apex.build (F.movie_db ()) in
  let stats =
    Update.apply apex [ Update.Insert_subtree { parent = 0; fragment = fragment_small } ]
  in
  Alcotest.(check int) "one op" 1 stats.Update.ops;
  Alcotest.(check bool) "edges added" true (stats.Update.edges_added >= 2);
  check_equiv "insert" apex

let test_maintain_delete () =
  let apex = Apex.build (F.movie_db ()) in
  let stats = Update.apply apex [ Update.Delete_subtree { node = 1 } ] in
  Alcotest.(check int) "five edges removed" 5 stats.Update.edges_removed;
  check_equiv "delete" apex

let test_maintain_refs () =
  let apex = Apex.build (F.movie_db ()) in
  ignore (Update.apply apex [ Update.Insert_ref { owner = 5; attr = "movie"; target = 3 } ]);
  check_equiv "insert ref" apex;
  ignore (Update.apply apex [ Update.Delete_ref { owner = 6; attr = "actor"; target = 1 } ]);
  check_equiv "delete ref" apex

let test_maintain_mixed_batch () =
  let apex = Apex.build (F.movie_db ()) in
  let stats =
    Update.apply apex
      [ Update.Insert_subtree { parent = 0; fragment = fragment_small };
        Update.Delete_ref { owner = 6; attr = "actor"; target = 3 };
        Update.Insert_ref { owner = 3; attr = "movie"; target = 6 };
        Update.Delete_subtree { node = 5 }
      ]
  in
  Alcotest.(check int) "four ops" 4 stats.Update.ops;
  check_equiv "mixed batch" apex

let test_maintain_on_refreshed_index () =
  (* a deep hash tree (length-3 required paths) exercises the depth-bounded
     dirty frontier and multi-level reverse resolution *)
  let g = F.movie_db () in
  let workload =
    [ F.path g [ "actor"; "name" ];
      F.path g [ "actor"; "name" ];
      F.path g [ "director"; "movie"; "title" ];
      F.path g [ "director"; "movie"; "title" ]
    ]
  in
  let apex = Apex.build_adapted g ~workload ~min_support:0.4 in
  ignore
    (Update.apply apex
       [ Update.Insert_subtree
           { parent = 0;
             fragment =
               X.element
                 ~children:
                   [ X.Element
                       (X.element
                          ~children:
                            [ X.Element (X.element ~children:[ X.Text "Dune" ] "title") ]
                          "movie")
                   ]
                 "director"
           }
       ]);
  check_equiv "insert under refreshed index" apex;
  ignore (Update.apply apex [ Update.Delete_subtree { node = 5 } ]);
  check_equiv "delete under refreshed index" apex

let test_maintain_materialized_flush () =
  (* repeated small batches against a materialized index: answers must keep
     coming back right through the store (delta chains + compaction) *)
  let g = F.movie_db () in
  let apex = Apex.build g in
  let pager = Repro_storage.Pager.create () in
  let pool = Repro_storage.Buffer_pool.create pager ~capacity:64 in
  Apex.materialize apex pool;
  for i = 1 to 6 do
    let stats =
      Update.apply apex
        [ Update.Insert_subtree
            { parent = 0;
              fragment = X.element ~children:[ X.Text (string_of_int i) ] "note"
            }
        ]
    in
    Alcotest.(check bool)
      (Printf.sprintf "batch %d flushed something" i)
      true
      (stats.Update.extents_flushed > 0)
  done;
  let g' = Apex.graph apex in
  let cost = Repro_storage.Cost.create () in
  let got = Apex_query.eval_query ~cost apex (Query.Qtype1 [ "note" ]) in
  Alcotest.(check (array int)) "notes found through the store"
    (Naive.eval_query g' (Query.Qtype1 [ "note" ]))
    got;
  check_equiv "after six flushed batches" apex

let test_refresh_after_updates () =
  (* a refresh after updates starts from the maintained index and must land
     on the same answers as building adapted from scratch *)
  let g = F.movie_db () in
  let apex = Apex.build g in
  ignore
    (Update.apply apex
       [ Update.Insert_subtree { parent = 0; fragment = fragment_small };
         Update.Delete_ref { owner = 6; attr = "actor"; target = 1 }
       ]);
  let g' = Apex.graph apex in
  let workload = [ F.path g' [ "actor"; "name" ]; F.path g' [ "actor"; "name" ] ] in
  Apex.refresh apex ~workload ~min_support:0.5;
  let rebuilt = Apex.build_adapted g' ~workload ~min_support:0.5 in
  List.iter
    (fun q ->
      Alcotest.(check (array int))
        (Printf.sprintf "refresh-after-update: %s" (Query.to_string q))
        (Apex_query.eval_query rebuilt q)
        (Apex_query.eval_query apex q))
    (battery g')

(* --- carried writer state vs a from-scratch recomputation --- *)

module Dataset = Repro_datagen.Dataset
module Epoch = Repro_server.Epoch

(* the Insert_subtree delta as an all-node scan: every row's suffix past
   its old length *)
let scan_delta g g' =
  let added = ref [] in
  for u = 0 to G.n_nodes g' - 1 do
    let old_deg = if u < G.n_nodes g then G.out_degree g u else 0 in
    let i = ref 0 in
    G.iter_out g' u (fun l v ->
        if !i >= old_deg then added := (u, l, v) :: !added;
        incr i)
  done;
  List.rev !added

let reachable g =
  let seen = Array.make (G.n_nodes g) false in
  let rec go u =
    if not seen.(u) then begin
      seen.(u) <- true;
      G.iter_out g u (fun _ v -> go v)
    end
  in
  go (G.root g);
  seen

let check_endpoints msg apex =
  List.iter
    (fun (n : Gapex.node) ->
      if Apex.load_endpoints apex n <> Edge_set.endpoints n.Gapex.extent then
        Alcotest.failf "%s: endpoints of summary node %d are stale" msg n.Gapex.id)
    (Gapex.reachable (Apex.summary apex))

(* One op at a time on a maintained index: the insert delta equals the
   all-node scan, the reachability kept beside the index equals a fresh
   walk, every endpoint memo entry (warmed before the op) matches its
   node's extent, and so does every entry of an epoch published after it
   (one is published after every op, so each copy patches the last). *)
let check_carried_state msg g0 ops =
  let apex = Apex.build g0 in
  ignore (Epoch.of_apex apex : Epoch.t);
  List.iteri
    (fun i op ->
      let msg = Printf.sprintf "%s op %d" msg i in
      let g = Apex.graph apex in
      (match op with
       | Update.Insert_subtree _ ->
         let applied = Update.apply_graph g op in
         if applied.Update.added <> scan_delta g applied.Update.graph then
           Alcotest.failf "%s: insert delta differs from the all-node scan" msg
       | Update.Delete_subtree _ | Update.Insert_ref _ | Update.Delete_ref _ -> ());
      check_endpoints (msg ^ " (warm)") apex;
      ignore (Update.apply apex [ op ] : Update.stats);
      let g' = Apex.graph apex in
      (match Apex.reach apex with
       | None -> Alcotest.failf "%s: no reachability kept" msg
       | Some bits ->
         Array.iteri
           (fun v r ->
             if r <> (Bytes.get bits v <> '\000') then
               Alcotest.failf "%s: reachability of %d is %b, kept %b" msg v r (not r))
           (reachable g'));
      (* the epoch first: its entries for the patched nodes come from the
         previous copy's, patched by the extent delta, since the writer's
         memo lost them *)
      check_endpoints (msg ^ " (epoch)") (Epoch.apex (Epoch.of_apex apex));
      check_endpoints msg apex)
    ops

let test_carried_state spec_name () =
  let spec =
    match Dataset.by_name spec_name with
    | Some s -> Dataset.scaled s 0.02
    | None -> Alcotest.failf "no dataset %s" spec_name
  in
  let g0 = Dataset.build_graph spec in
  let ops, _ = Repro_workload.Update_workload.gen_ops ~seed:11 ~n:40 g0 in
  check_carried_state spec_name g0 ops

(* movie_db is not a document forest: removals take the full walk *)
let test_carried_state_non_forest () =
  let g0 = F.movie_db () in
  let ops, _ = Repro_workload.Update_workload.gen_ops ~seed:5 ~n:12 g0 in
  check_carried_state "movie_db" g0 ops

let () =
  Alcotest.run "update-ops"
    [ ( "graph",
        [ Alcotest.test_case "delete director subtree" `Quick test_delete_director;
          Alcotest.test_case "delete cascades references" `Quick test_delete_actor_cascades_refs;
          Alcotest.test_case "delete root raises" `Quick test_delete_root_raises;
          Alcotest.test_case "add ref edge" `Quick test_add_ref_edge;
          Alcotest.test_case "remove ref edge" `Quick test_remove_ref_edge;
          Alcotest.test_case "insert delta reporting" `Quick test_apply_graph_insert_delta
        ] );
      ( "maintenance",
        [ Alcotest.test_case "insert" `Quick test_maintain_insert;
          Alcotest.test_case "delete" `Quick test_maintain_delete;
          Alcotest.test_case "references" `Quick test_maintain_refs;
          Alcotest.test_case "mixed batch" `Quick test_maintain_mixed_batch;
          Alcotest.test_case "refreshed index" `Quick test_maintain_on_refreshed_index;
          Alcotest.test_case "materialized flush" `Quick test_maintain_materialized_flush;
          Alcotest.test_case "refresh after updates" `Quick test_refresh_after_updates
        ] );
      ( "carried state",
        [ Alcotest.test_case "Ged01" `Quick (test_carried_state "Ged01");
          Alcotest.test_case "Flix01" `Quick (test_carried_state "Flix01");
          Alcotest.test_case "movie_db" `Quick test_carried_state_non_forest
        ] )
    ]
