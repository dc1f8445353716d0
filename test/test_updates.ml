(* Document growth: Data_graph.append_subtree, and an index maintained
   through Update.apply's subtree inserts. *)

module F = Test_support.Fixtures
module G = Repro_graph.Data_graph
module Edge_set = Repro_graph.Edge_set
module Query = Repro_pathexpr.Query
module Naive = Repro_pathexpr.Naive_eval
module Update = Repro_update.Update
open Repro_apex

let movie_xml =
  {|<MovieDB>
      <actor id="a1" movie="m1"><name>Kevin</name></actor>
      <director id="d1">
        <name>Reynolds</name>
        <movie id="m1" actor="a1"><title>Waterworld</title></movie>
      </director>
    </MovieDB>|}

let base_graph () =
  G.of_document ~idref_attrs:[ "movie"; "actor" ]
    (Repro_xml.Xml_parser.parse_string movie_xml)

let fragment =
  Repro_xml.Xml_tree.element
    ~attrs:[ ("id", "a2"); ("movie", "m1") ]
    ~children:
      [ Repro_xml.Xml_tree.Element
          (Repro_xml.Xml_tree.element ~children:[ Repro_xml.Xml_tree.Text "Jeanne" ] "name")
      ]
    "actor"

(* --- append_subtree --- *)

let test_append_grows_graph () =
  let g = base_graph () in
  let g', added =
    G.append_subtree ~idref_attrs:[ "movie"; "actor" ] g ~parent:(G.root g) fragment
  in
  (* actor + name leaf + @movie attr node *)
  Alcotest.(check int) "3 new nodes" (G.n_nodes g + 3) (G.n_nodes g');
  (* root->actor, actor->name, actor->@movie, @movie->movie *)
  Alcotest.(check int) "4 new edges" (G.n_edges g + 4) (G.n_edges g');
  Alcotest.(check (list int)) "returned edges' sources, parent first"
    [ G.root g; 9; 9; 11 ]
    (List.map (fun (u, _, _) -> u) added);
  (* old graph untouched *)
  Alcotest.(check int) "old node count stable" 9 (G.n_nodes g)

let test_append_resolves_old_ids () =
  let g = base_graph () in
  let g', _ =
    G.append_subtree ~idref_attrs:[ "movie"; "actor" ] g ~parent:(G.root g) fragment
  in
  (* the new actor's @movie reference reaches the *existing* movie's title *)
  let r = Naive.eval_query g' (Result.get_ok (Query.parse "//actor/@movie=>movie/title")) in
  Alcotest.(check int) "both actors reach the title" 1 (Array.length r);
  let names = Naive.eval_query g' (Result.get_ok (Query.parse "//actor/name")) in
  Alcotest.(check int) "two actor names now" 2 (Array.length names)

let test_append_new_ids_resolvable_later () =
  let g = base_graph () in
  let g', _ = G.append_subtree ~idref_attrs:[ "movie"; "actor" ] g ~parent:(G.root g) fragment in
  (* a second fragment referencing the id introduced by the first *)
  let sequel =
    Repro_xml.Xml_tree.element ~attrs:[ ("actor", "a2") ]
      ~children:
        [ Repro_xml.Xml_tree.Element
            (Repro_xml.Xml_tree.element ~children:[ Repro_xml.Xml_tree.Text "Backlot" ] "title")
        ]
      "movie"
  in
  let g'', _ = G.append_subtree ~idref_attrs:[ "movie"; "actor" ] g' ~parent:(G.root g') sequel in
  let r = Naive.eval_query g'' (Result.get_ok (Query.parse "//movie/@actor=>actor/name")) in
  Alcotest.(check int) "new movie references the appended actor" 2 (Array.length r)

let test_append_dangling_dropped () =
  let g = base_graph () in
  let bad =
    Repro_xml.Xml_tree.element ~attrs:[ ("movie", "nope") ]
      ~children:[ Repro_xml.Xml_tree.Element (Repro_xml.Xml_tree.element "name") ]
      "actor"
  in
  let g', _ = G.append_subtree ~idref_attrs:[ "movie" ] g ~parent:(G.root g) bad in
  (* actor + empty name only; no attr node for the dangling ref *)
  Alcotest.(check int) "2 new nodes" (G.n_nodes g + 2) (G.n_nodes g')

let test_append_unknown_parent () =
  let g = base_graph () in
  match G.append_subtree g ~parent:999 fragment with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- Update.apply with subtree inserts --- *)

let extents_equal a b =
  let ea = Apex_spec.apex_extents a and eb = Apex_spec.apex_extents b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (p1, s1) (p2, s2) ->
         Repro_pathexpr.Label_path.equal p1 p2 && Edge_set.equal s1 s2)
       ea eb

let insert apex ~parent fragment =
  ignore (Update.apply apex [ Update.Insert_subtree { parent; fragment } ] : Update.stats)

(* [fragment] as update ops: Insert_subtree encodes attributes as values,
   so the actor's reference to m1 is added as an IDREF edge of its own *)
let insert_actor apex =
  let g = Apex.graph apex in
  let actor =
    Repro_xml.Xml_tree.element ~attrs:[ ("id", "a2") ]
      ~children:
        [ Repro_xml.Xml_tree.Element
            (Repro_xml.Xml_tree.element ~children:[ Repro_xml.Xml_tree.Text "Jeanne" ] "name")
        ]
      "actor"
  in
  ignore
    (Update.apply apex
       [ Update.Insert_subtree { parent = G.root g; fragment = actor };
         Update.Insert_ref
           { owner = G.n_nodes g; attr = "movie"; target = List.assoc "m1" (G.ids g) }
       ]
      : Update.stats)

let test_insert_matches_fresh () =
  let g = base_graph () in
  let workload =
    match Repro_pathexpr.Label_path.of_string (G.labels g) "actor.name" with
    | Some p -> [ p; p ]
    | None -> []
  in
  let apex = Apex.build_adapted g ~workload ~min_support:0.5 in
  insert_actor apex;
  let fresh = Apex.build_adapted (Apex.graph apex) ~workload ~min_support:0.5 in
  Alcotest.(check bool) "maintained insert = fresh rebuild" true (extents_equal apex fresh)

let test_insert_queries_correct () =
  let g = base_graph () in
  let apex = Apex.build g in
  insert_actor apex;
  let g' = Apex.graph apex in
  List.iter
    (fun text ->
      let q = Result.get_ok (Query.parse text) in
      Alcotest.(check (array int)) text (Naive.eval_query g' q) (Apex_query.eval_query apex q))
    [ "//actor/name";
      "//name";
      "//actor/@movie=>movie/title";
      "//director//title";
      {|//name[text()="Jeanne"]|}
    ]

let test_insert_rejects_unknown_parent () =
  let g = base_graph () in
  let apex = Apex.build g in
  (match insert apex ~parent:999 fragment with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "expected Invalid_argument for an unknown parent");
  Alcotest.(check bool) "index still on the original graph" true (Apex.graph apex == g)

(* --- property: random growth keeps the index exact --- *)

let gen_fragment =
  QCheck.Gen.(
    int_range 1 3 >>= fun n_children ->
    oneofl [ "grow0"; "grow1"; "l0" ] >>= fun tag ->
    list_repeat n_children (oneofl [ "l0"; "l1"; "leafy" ]) >>= fun children ->
    pure
      (Repro_xml.Xml_tree.element
         ~children:
           (List.map
              (fun t ->
                Repro_xml.Xml_tree.Element
                  (Repro_xml.Xml_tree.element
                     ~children:[ Repro_xml.Xml_tree.Text "v" ]
                     t))
              children)
         tag))

let prop_insert_equals_fresh =
  QCheck.Test.make ~count:100 ~name:"insert_subtree = fresh rebuild"
    (QCheck.pair F.arb_dag (QCheck.make gen_fragment))
    (fun (spec, fragment) ->
      let g = F.dag_of_spec spec in
      let rand = Random.State.make [| Hashtbl.hash spec + 3 |] in
      let workload =
        if G.out_degree g (G.root g) = 0 then []
        else
          List.init 4 (fun _ ->
              List.map fst (Repro_workload.Simple_paths.random_walk rand ~max_length:4 g))
      in
      QCheck.assume (workload <> []);
      let parent = Random.State.int rand (G.n_nodes g) in
      let apex = Apex.build_adapted g ~workload ~min_support:0.4 in
      insert apex ~parent fragment;
      let fresh = Apex.build_adapted (Apex.graph apex) ~workload ~min_support:0.4 in
      extents_equal apex fresh)

let () =
  Alcotest.run "updates"
    [ ( "append_subtree",
        [ Alcotest.test_case "grows graph" `Quick test_append_grows_graph;
          Alcotest.test_case "resolves old ids" `Quick test_append_resolves_old_ids;
          Alcotest.test_case "new ids resolvable later" `Quick test_append_new_ids_resolvable_later;
          Alcotest.test_case "dangling dropped" `Quick test_append_dangling_dropped;
          Alcotest.test_case "unknown parent" `Quick test_append_unknown_parent
        ] );
      ( "insert_subtree",
        [ Alcotest.test_case "matches fresh rebuild" `Quick test_insert_matches_fresh;
          Alcotest.test_case "queries correct" `Quick test_insert_queries_correct;
          Alcotest.test_case "rejects unknown parent" `Quick test_insert_rejects_unknown_parent
        ] );
      ( "properties", [ QCheck_alcotest.to_alcotest prop_insert_equals_fresh ] )
    ]
