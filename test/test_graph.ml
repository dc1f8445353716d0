open Repro_graph
module F = Test_support.Fixtures

let edge_set = Alcotest.testable Edge_set.pp Edge_set.equal

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1)) in
  n = 0 || go 0

(* --- Edge_set --- *)

let test_pack_unpack () =
  List.iter
    (fun (u, v) -> Alcotest.(check (pair int int)) "roundtrip" (u, v) (Edge_set.unpack (Edge_set.pack u v)))
    [ (0, 0); (1, 2); (123456, 654321); (Edge_set.null, 0); ((1 lsl 31) - 1, (1 lsl 31) - 1) ]

let test_pack_bounds () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Edge_set.pack: component out of range (-1, 0)")
    (fun () -> ignore (Edge_set.pack (-1) 0));
  match Edge_set.pack (1 lsl 31) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out-of-range failure"

let test_edge_set_ops () =
  let a = Edge_set.of_list [ (1, 2); (3, 4) ] in
  let b = Edge_set.of_list [ (3, 4); (5, 6) ] in
  Alcotest.check edge_set "union" (Edge_set.of_list [ (1, 2); (3, 4); (5, 6) ]) (Edge_set.union a b);
  Alcotest.check edge_set "inter" (Edge_set.of_list [ (3, 4) ]) (Edge_set.inter a b);
  Alcotest.check edge_set "diff" (Edge_set.of_list [ (1, 2) ]) (Edge_set.diff a b);
  Alcotest.(check bool) "mem" true (Edge_set.mem a 3 4);
  Alcotest.(check bool) "not mem" false (Edge_set.mem a 3 5);
  Alcotest.(check int) "cardinal" 2 (Edge_set.cardinal a)

let test_endpoints_parents () =
  let s = Edge_set.of_list [ (Edge_set.null, 0); (1, 2); (3, 2); (1, 4) ] in
  Alcotest.(check (array int)) "endpoints" [| 0; 2; 4 |] (Edge_set.endpoints s);
  Alcotest.(check (array int)) "parents (null excluded)" [| 1; 3 |] (Edge_set.parents s)

let test_join () =
  (* a: reaches nodes 2 and 4; b: edges out of 2 and of 9 *)
  let a = Edge_set.of_list [ (1, 2); (3, 4) ] in
  let b = Edge_set.of_list [ (2, 7); (9, 8); (4, 6) ] in
  Alcotest.check edge_set "join keeps connected" (Edge_set.of_list [ (2, 7); (4, 6) ]) (Edge_set.join a b)

(* --- Label --- *)

let test_label_interning () =
  let t = Label.create_table () in
  let a = Label.intern t "movie" in
  let b = Label.intern t "actor" in
  let a' = Label.intern t "movie" in
  Alcotest.(check int) "same id" a a';
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "to_string" "movie" (Label.to_string t a);
  Alcotest.(check int) "count" 2 (Label.count t);
  Alcotest.(check (option int)) "find known" (Some b) (Label.find t "actor");
  Alcotest.(check (option int)) "find unknown" None (Label.find t "nope")

let test_label_attribute () =
  let t = Label.create_table () in
  let at = Label.intern t "@actor" in
  let plain = Label.intern t "actor" in
  Alcotest.(check bool) "@ label" true (Label.is_attribute t at);
  Alcotest.(check bool) "plain label" false (Label.is_attribute t plain)

(* --- Data_graph on the MovieDB fixture --- *)

let test_movie_db_shape () =
  let g = F.movie_db () in
  Alcotest.(check int) "nodes" 11 (Data_graph.n_nodes g);
  Alcotest.(check int) "edges" 14 (Data_graph.n_edges g);
  Alcotest.(check int) "root" 0 (Data_graph.root g);
  Alcotest.(check (option string)) "leaf value" (Some "Waterworld") (Data_graph.value g 7);
  Alcotest.(check (option string)) "non-leaf value" None (Data_graph.value g 6)

let test_movie_db_t_paths () =
  let g = F.movie_db () in
  let t names = Data_graph.reachable_by_label_path g (F.path g names) in
  Alcotest.check edge_set "T(title)" (Edge_set.of_list [ (6, 7) ]) (t [ "title" ]);
  Alcotest.check edge_set "T(name)"
    (Edge_set.of_list [ (1, 2); (3, 4); (5, 8) ])
    (t [ "name" ]);
  Alcotest.check edge_set "T(actor.name)" (Edge_set.of_list [ (1, 2); (3, 4) ]) (t [ "actor"; "name" ]);
  Alcotest.check edge_set "T(movie.title)" (Edge_set.of_list [ (6, 7) ]) (t [ "movie"; "title" ]);
  Alcotest.check edge_set "T(@actor.actor)" (Edge_set.of_list [ (9, 1); (9, 3) ]) (t [ "@actor"; "actor" ]);
  Alcotest.check edge_set "T(director.name)" (Edge_set.of_list [ (5, 8) ]) (t [ "director"; "name" ]);
  (* cyclic traversal terminates: @movie.movie.@actor.actor.@movie.movie *)
  Alcotest.check edge_set "long cyclic path"
    (Edge_set.of_list [ (10, 6) ])
    (t [ "@movie"; "movie"; "@actor"; "actor"; "@movie"; "movie" ])

let test_edges_with_label () =
  let g = F.movie_db () in
  Alcotest.check edge_set "actor edges"
    (Edge_set.of_list [ (0, 1); (0, 3); (9, 1); (9, 3) ])
    (Data_graph.edges_with_label g (F.label g "actor"));
  Alcotest.check edge_set "movie edges"
    (Edge_set.of_list [ (0, 6); (5, 6); (10, 6) ])
    (Data_graph.edges_with_label g (F.label g "movie"));
  (* length-1 reachability coincides with the label grouping *)
  Alcotest.check edge_set "consistency"
    (Data_graph.reachable_by_label_path g [ F.label g "name" ])
    (Data_graph.edges_with_label g (F.label g "name"))

let test_iter_in () =
  let g = F.movie_db () in
  let incoming = ref [] in
  Data_graph.iter_in g 6 (fun l u -> incoming := (Label.to_string (Data_graph.labels g) l, u) :: !incoming);
  let sorted = List.sort compare !incoming in
  Alcotest.(check (list (pair string int)))
    "movie node incoming"
    [ ("movie", 0); ("movie", 5); ("movie", 10) ]
    sorted

let test_in_out_degree_sum () =
  let g = F.movie_db () in
  let total_in = ref 0 in
  for v = 0 to Data_graph.n_nodes g - 1 do
    Data_graph.iter_in g v (fun _ _ -> incr total_in)
  done;
  Alcotest.(check int) "sum of in-degrees = edges" (Data_graph.n_edges g) !total_in

let test_idref_heuristic () =
  let g = F.movie_db () in
  let names =
    List.map (Label.to_string (Data_graph.labels g)) (Data_graph.idref_labels g) |> List.sort compare
  in
  Alcotest.(check (list string)) "idref labels" [ "@actor"; "@movie" ] names

let test_root_edge () =
  let g = F.movie_db () in
  Alcotest.check edge_set "root pseudo-edge"
    (Edge_set.of_list [ (Edge_set.null, 0) ])
    (Data_graph.root_edge g)

let test_unknown_nid_rejected () =
  let g = F.movie_db () in
  match Data_graph.value g 999 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- of_document: Section 3 encoding --- *)

let movie_xml =
  {|<MovieDB>
      <actor id="a1" movie="m1"><name>Kevin</name></actor>
      <actor id="a2"><name>Jeanne</name></actor>
      <director id="d1">
        <name>Reynolds</name>
        <movie id="m1" actor="a1 a2" year="1995"><title>Waterworld</title></movie>
      </director>
    </MovieDB>|}

let graph_of_xml ?id_attrs ?idref_attrs s =
  Data_graph.of_document ?id_attrs ?idref_attrs (Repro_xml.Xml_parser.parse_string s)

let test_of_document_basic () =
  let g = graph_of_xml ~idref_attrs:[ "movie"; "actor" ] movie_xml in
  (* elements: MovieDB, 2 actors, 2 names, director, dname, movie, title = 9
     plus @year leaf, @movie attr node, @actor attr node = 12 *)
  Alcotest.(check int) "nodes" 12 (Data_graph.n_nodes g);
  let labels = Data_graph.labels g in
  let l s =
    match Label.find labels s with
    | Some l -> l
    | None -> Alcotest.failf "label %s missing" s
  in
  (* reference edge carries the *target's* tag *)
  let via_at_actor = Data_graph.reachable_by_label_path g [ l "@actor"; l "actor"; l "name" ] in
  Alcotest.(check int) "names reachable through @actor" 2 (Edge_set.cardinal via_at_actor);
  let via_at_movie = Data_graph.reachable_by_label_path g [ l "@movie"; l "movie"; l "title" ] in
  Alcotest.(check int) "title reachable through @movie" 1 (Edge_set.cardinal via_at_movie)

let test_of_document_attrs_and_values () =
  let g = graph_of_xml ~idref_attrs:[ "movie"; "actor" ] movie_xml in
  let labels = Data_graph.labels g in
  let l s = Option.get (Label.find labels s) in
  (* ordinary attribute year becomes a leaf under @year *)
  let year_edges = Data_graph.edges_with_label g (l "@year") in
  Alcotest.(check int) "one @year edge" 1 (Edge_set.cardinal year_edges);
  let _, year_leaf = List.hd (Edge_set.to_list year_edges) in
  Alcotest.(check (option string)) "@year value" (Some "1995") (Data_graph.value g year_leaf);
  (* text-only element became a leaf with its text *)
  let title_edges = Data_graph.edges_with_label g (l "title") in
  let _, title_leaf = List.hd (Edge_set.to_list title_edges) in
  Alcotest.(check (option string)) "title value" (Some "Waterworld") (Data_graph.value g title_leaf)

let test_of_document_idref_labels () =
  let g = graph_of_xml ~idref_attrs:[ "movie"; "actor" ] movie_xml in
  Alcotest.(check int) "2 idref labels" 2 (List.length (Data_graph.idref_labels g))

let test_of_document_id_not_an_edge () =
  let g = graph_of_xml ~idref_attrs:[ "movie"; "actor" ] movie_xml in
  Alcotest.(check (option int)) "@id never interned" None (Label.find (Data_graph.labels g) "@id")

let test_of_document_dangling_ref () =
  let g = graph_of_xml ~idref_attrs:[ "ref" ] {|<r><a id="x"/><b ref="nope"/></r>|} in
  (* dangling ref dropped: only r, a, b *)
  Alcotest.(check int) "nodes" 3 (Data_graph.n_nodes g);
  Alcotest.(check int) "edges" 2 (Data_graph.n_edges g)

let test_of_document_no_idref_config () =
  (* without idref_attrs, 'movie'/'actor' attrs become plain value leaves *)
  let g = graph_of_xml movie_xml in
  let labels = Data_graph.labels g in
  Alcotest.(check bool) "@movie exists as value leaf" true (Label.find labels "@movie" <> None);
  Alcotest.(check int) "no idref labels" 0 (List.length (Data_graph.idref_labels g))

let test_graph_stats () =
  let g = F.movie_db () in
  let s = Graph_stats.compute g in
  Alcotest.(check int) "nodes" 11 s.Graph_stats.nodes;
  Alcotest.(check int) "edges" 14 s.Graph_stats.edges;
  (* labels: actor, name, director, movie, title, @actor, @movie *)
  Alcotest.(check int) "labels" 7 s.Graph_stats.labels;
  Alcotest.(check int) "idref labels" 2 s.Graph_stats.idref_labels

(* --- Subtree materialization --- *)

let movie_xml_for_subtree =
  {|<MovieDB><actor id="a1" movie="m1"><name>Kevin</name></actor><director id="d1"><name>Reynolds</name><movie id="m1" actor="a1"><title>Waterworld</title></movie></director></MovieDB>|}

let test_subtree_roundtrip_document () =
  let doc = Repro_xml.Xml_parser.parse_string movie_xml_for_subtree in
  let g = Data_graph.of_document ~idref_attrs:[ "movie"; "actor" ] doc in
  let rebuilt = Subtree.element ~tag:"MovieDB" g (Data_graph.root g) in
  (* re-encode the rebuilt XML: it must produce an identical graph *)
  let g' =
    Data_graph.of_document ~idref_attrs:[ "movie"; "actor" ]
      { Repro_xml.Xml_tree.decl = []; root = rebuilt }
  in
  Alcotest.(check int) "same node count" (Data_graph.n_nodes g) (Data_graph.n_nodes g');
  Alcotest.(check int) "same edge count" (Data_graph.n_edges g) (Data_graph.n_edges g')

let test_subtree_fragment () =
  let doc = Repro_xml.Xml_parser.parse_string movie_xml_for_subtree in
  let g = Data_graph.of_document ~idref_attrs:[ "movie"; "actor" ] doc in
  (* nid 1 is the first actor *)
  let xml = Subtree.to_xml_string g 1 in
  Alcotest.(check bool) "names the tag" true (String.length xml > 0 && String.sub xml 0 6 = "<actor");
  let frag = Repro_xml.Xml_parser.parse_string xml in
  Alcotest.(check (option string)) "idref attribute recovered" (Some "m1")
    (Repro_xml.Xml_tree.attr frag.root "movie");
  Alcotest.(check (option string)) "id attribute recovered" (Some "a1")
    (Repro_xml.Xml_tree.attr frag.root "id");
  Alcotest.(check string) "text value recovered" "Kevin" (Repro_xml.Xml_tree.text_content frag.root)

let test_subtree_default_tag () =
  let g = F.movie_db () in
  (* Builder graphs have no ids: references render as #nid placeholders *)
  let xml = Subtree.to_xml_string g 1 in
  Alcotest.(check bool) "placeholder reference" true
    (contains_sub xml "movie=\"#6\"")

let test_id_of () =
  let doc = Repro_xml.Xml_parser.parse_string movie_xml_for_subtree in
  let g = Data_graph.of_document ~idref_attrs:[ "movie"; "actor" ] doc in
  Alcotest.(check (option string)) "actor id" (Some "a1") (Data_graph.id_of g 1);
  Alcotest.(check (option string)) "root has no id" None (Data_graph.id_of g 0)

(* --- properties on random DAGs --- *)

let prop_t_path_chains =
  QCheck.Test.make ~count:150 ~name:"T(p.q) endpoints ⊆ step from T(p) endpoints" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let tbl = Data_graph.labels g in
      match Label.find tbl "l0", Label.find tbl "l1" with
      | Some l0, Some l1 ->
        let t01 = Data_graph.reachable_by_label_path g [ l0; l1 ] in
        let t0 = Data_graph.reachable_by_label_path g [ l0 ] in
        (* every edge in T(l0.l1) must start at an endpoint of T(l0) *)
        Edge_set.fold
          (fun ok u _ -> ok && Repro_util.Int_sorted.mem (Edge_set.endpoints t0) u)
          true t01
      | _ -> QCheck.assume_fail ())

(* --- semijoin properties against filter references --- *)

(* narrow nid range so parents repeat — the range-contiguity fast path in
   semijoin_parents only matters when a parent owns a run of edges *)
let gen_edge_set =
  QCheck.Gen.(
    map
      (fun pairs -> Edge_set.of_list pairs)
      (list_size (int_bound 400) (pair (int_bound 50) (int_bound 50))))

let arb_edge_set =
  QCheck.make ~print:(Format.asprintf "%a" Edge_set.pp) gen_edge_set

let gen_nid_set =
  QCheck.Gen.(map Repro_util.Int_sorted.of_unsorted (array_size (int_bound 30) (int_bound 60)))

let arb_semijoin_case =
  QCheck.make
    ~print:(fun (t, sp) ->
      Format.asprintf "%a / %s" Edge_set.pp t (QCheck.Print.(array int) sp))
    QCheck.Gen.(pair gen_edge_set gen_nid_set)

let filter_edges pred t =
  Edge_set.of_list (List.filter pred (Edge_set.to_list t))

let prop_semijoin_parents =
  QCheck.Test.make ~count:200 ~name:"semijoin_parents = filter by parent" arb_semijoin_case
    (fun (t, sp) ->
      Edge_set.equal
        (Edge_set.semijoin_parents t sp)
        (filter_edges (fun (u, _) -> Repro_util.Int_sorted.mem sp u) t))

let prop_semijoin_endpoints =
  QCheck.Test.make ~count:200 ~name:"semijoin_endpoints = endpoints of filter" arb_semijoin_case
    (fun (t, sp) ->
      Edge_set.semijoin_endpoints t sp
      = Edge_set.endpoints (filter_edges (fun (u, _) -> Repro_util.Int_sorted.mem sp u) t))

let prop_semijoin_children =
  QCheck.Test.make ~count:200 ~name:"semijoin_children = filter by child" arb_semijoin_case
    (fun (t, sc) ->
      Edge_set.equal
        (Edge_set.semijoin_children t sc)
        (filter_edges (fun (_, v) -> Repro_util.Int_sorted.mem sc v) t))

let prop_join_reference =
  QCheck.Test.make ~count:200 ~name:"join = filter by endpoints of lhs"
    (QCheck.pair arb_edge_set arb_edge_set)
    (fun (a, b) ->
      let eps = Edge_set.endpoints a in
      Edge_set.equal (Edge_set.join a b)
        (filter_edges (fun (u, _) -> Repro_util.Int_sorted.mem eps u) b))

let prop_length1_equals_grouping =
  QCheck.Test.make ~count:150 ~name:"T(l) = edges_with_label l" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let tbl = Data_graph.labels g in
      let ok = ref true in
      for l = 0 to Label.count tbl - 1 do
        if
          not
            (Edge_set.equal
               (Data_graph.reachable_by_label_path g [ l ])
               (Data_graph.edges_with_label g l))
        then ok := false
      done;
      !ok)

(* --- document forests --- *)

(* the same graph through Builder, edge for edge in the same order, so its
   reverse adjacency (and with it every tree edge) is identical: the
   Builder's check then says whether a flag set by construction or
   inherited through an update is true *)
let rebuild g =
  let b = Data_graph.Builder.create () in
  let labels = Data_graph.labels g in
  for v = 0 to Data_graph.n_nodes g - 1 do
    ignore (Data_graph.Builder.add_node ?value:(Data_graph.value g v) b : int)
  done;
  Data_graph.iter_edges g (fun u l v -> Data_graph.Builder.add_edge b u (Label.to_string labels l) v);
  Data_graph.Builder.build ~root:(Data_graph.root g) b

let check_forest msg g =
  Alcotest.(check bool) (msg ^ ": flag") true (Data_graph.is_forest g);
  Alcotest.(check bool) (msg ^ ": checked") true (Data_graph.is_forest (rebuild g))

let test_forest_of_document () =
  check_forest "movie_doc" (F.movie_doc ());
  List.iter
    (fun spec ->
      check_forest spec.Repro_datagen.Dataset.name
        (Repro_datagen.Dataset.build_graph (Repro_datagen.Dataset.scaled spec 0.05)))
    Repro_datagen.Dataset.small

let built edges =
  let b = Data_graph.Builder.create () in
  let n = 1 + List.fold_left (fun m (u, _, v) -> max m (max u v)) 0 edges in
  for _ = 1 to n do
    ignore (Data_graph.Builder.add_node b : int)
  done;
  List.iter (fun (u, l, v) -> Data_graph.Builder.add_edge b u l v) edges;
  Data_graph.Builder.build ~root:0 b

let test_forest_rejects () =
  let not_forest msg g = Alcotest.(check bool) msg false (Data_graph.is_forest g) in
  not_forest "movie_db: the movie has two element parents" (F.movie_db ());
  not_forest "two-parent DAG" (built [ (0, "a", 1); (0, "b", 2); (1, "c", 3); (2, "c", 3) ]);
  not_forest "two tags on one node"
    (built [ (0, "a", 1); (0, "@r", 2); (2, "b", 1) ]);
  not_forest "parent cycle off the root" (built [ (0, "a", 1); (2, "b", 3); (3, "c", 2) ]);
  Alcotest.(check bool) "small_tree" true (Data_graph.is_forest (F.small_tree ()));
  Alcotest.(check bool) "reference from an attribute node" true
    (Data_graph.is_forest (built [ (0, "a", 1); (0, "b", 2); (2, "@r", 3); (3, "a", 1) ]));
  Alcotest.(check bool) "reference cycle through an attribute node" true
    (Data_graph.is_forest (built [ (0, "a", 1); (1, "@r", 2); (2, "a", 1) ]))

let test_forest_updates () =
  let g = F.movie_doc () in
  let labels = Data_graph.labels g in
  let tagged name =
    Edge_set.endpoints (Data_graph.edges_with_label g (Option.get (Label.find labels name)))
  in
  let director = (tagged "director").(0) and actor = (tagged "actor").(0) in
  let movie = (tagged "movie").(0) in
  let frag =
    (Repro_xml.Xml_parser.parse_string
       {|<movie id="m2" actor="a1"><title>Solo</title><award><title>Best</title></award></movie>|})
      .Repro_xml.Xml_tree.root
  in
  let g1 = Data_graph.append_subtree ~idref_attrs:[ "actor" ] g ~parent:director frag in
  check_forest "append_subtree" g1;
  let g2, _ = Data_graph.add_ref_edge g1 ~owner:actor ~attr:"movie" ~target:(Data_graph.n_nodes g) in
  check_forest "add_ref_edge" g2;
  let g3, _ = Data_graph.remove_ref_edge g2 ~owner:actor ~attr:"movie" ~target:movie in
  check_forest "remove_ref_edge" g3;
  let g4, _ = Data_graph.delete_subtree g3 ~node:movie in
  check_forest "delete_subtree" g4;
  check_forest "snapshot" (Data_graph.snapshot g4)

(* --- carried caches vs a from-scratch recomputation --- *)

module Update = Repro_update.Update
module Dataset = Repro_datagen.Dataset

(* what [iter_in] and [edges_with_label] must hold, recomputed from the
   out-rows alone *)
let check_caches msg g =
  let n = Data_graph.n_nodes g in
  let ins = Array.make n [] in
  let by_label = Hashtbl.create 16 in
  Data_graph.iter_edges g (fun u l v ->
      ins.(v) <- (l, u) :: ins.(v);
      Hashtbl.replace by_label l ((u, v) :: Option.value (Hashtbl.find_opt by_label l) ~default:[]));
  for v = 0 to n - 1 do
    let got = ref [] in
    Data_graph.iter_in g v (fun l u -> got := (l, u) :: !got);
    if !got <> ins.(v) then Alcotest.failf "%s: in-row of %d differs" msg v
  done;
  for l = 0 to Label.count (Data_graph.labels g) - 1 do
    let expected = Edge_set.of_list (Option.value (Hashtbl.find_opt by_label l) ~default:[]) in
    if not (Edge_set.equal expected (Data_graph.edges_with_label g l)) then
      Alcotest.failf "%s: edges with label %s differ" msg (Label.to_string (Data_graph.labels g) l)
  done

(* [ids] lists ids of connected nodes only, and [id_of] is its inverse:
   some id registered for the node, [None] when there is none *)
let check_ids msg g =
  let by_node = Hashtbl.create 16 in
  List.iter
    (fun (id, v) ->
      if v <> Data_graph.root g && Data_graph.tree_parent g v < 0 then
        Alcotest.failf "%s: id %s names disconnected node %d" msg id v;
      Hashtbl.replace by_node v (id :: Option.value (Hashtbl.find_opt by_node v) ~default:[]))
    (Data_graph.ids g);
  for v = 0 to Data_graph.n_nodes g - 1 do
    match (Data_graph.id_of g v, Hashtbl.find_opt by_node v) with
    | None, None -> ()
    | Some id, Some ids when List.mem id ids -> ()
    | _ -> Alcotest.failf "%s: id_of %d disagrees with ids" msg v
  done

let rec fragment_ids (e : Repro_xml.Xml_tree.element) =
  List.filter_map (fun (k, v) -> if k = "id" then Some v else None) e.attrs
  @ List.concat_map
      (function Repro_xml.Xml_tree.Element c -> fragment_ids c | Repro_xml.Xml_tree.Text _ -> [])
      e.children

(* the id set a version must hold: the previous one's, less the ids of
   nodes the op disconnected, plus a fragment's not yet registered ids *)
let expected_ids g g' op =
  let before = List.map fst (Data_graph.ids g) in
  let kept =
    List.filter
      (fun (_, v) -> v = Data_graph.root g' || Data_graph.tree_parent g' v >= 0)
      (Data_graph.ids g)
    |> List.map fst
  in
  let added =
    match op with
    | Update.Insert_subtree { fragment; _ } ->
      List.filter (fun id -> not (List.mem id before)) (fragment_ids fragment)
    | Update.Delete_subtree _ | Update.Insert_ref _ | Update.Delete_ref _ -> []
  in
  List.sort_uniq String.compare (kept @ added)

let test_carried_caches spec_name () =
  let spec =
    match Dataset.by_name spec_name with
    | Some s -> Dataset.scaled s 0.02
    | None -> Alcotest.failf "no dataset %s" spec_name
  in
  let g0 = Dataset.build_graph spec in
  let ops, _ = Repro_workload.Update_workload.gen_ops ~seed:11 ~n:40 g0 in
  ignore
    (List.fold_left
       (fun (g, i) op ->
         let g' = (Update.apply_graph g op).Update.graph in
         let msg = Printf.sprintf "%s op %d" spec_name i in
         check_caches msg g';
         check_ids msg g';
         Alcotest.(check (list string))
           (msg ^ ": ids") (expected_ids g g' op)
           (List.map fst (Data_graph.ids g'));
         (g', i + 1))
       (g0, 0) ops
      : Data_graph.t * int)

let test_carried_caches_non_forest () =
  let g0 = F.movie_db () in
  let ops, _ = Repro_workload.Update_workload.gen_ops ~seed:5 ~n:12 g0 in
  ignore
    (List.fold_left
       (fun (g, i) op ->
         let g' = (Update.apply_graph g op).Update.graph in
         check_caches (Printf.sprintf "movie_db op %d" i) g';
         (g', i + 1))
       (g0, 0) ops
      : Data_graph.t * int)

let () =
  Alcotest.run "graph"
    [ ( "edge_set",
        [ Alcotest.test_case "pack/unpack" `Quick test_pack_unpack;
          Alcotest.test_case "pack bounds" `Quick test_pack_bounds;
          Alcotest.test_case "set ops" `Quick test_edge_set_ops;
          Alcotest.test_case "endpoints/parents" `Quick test_endpoints_parents;
          Alcotest.test_case "join" `Quick test_join
        ] );
      ( "label",
        [ Alcotest.test_case "interning" `Quick test_label_interning;
          Alcotest.test_case "attribute detection" `Quick test_label_attribute
        ] );
      ( "data_graph",
        [ Alcotest.test_case "movie_db shape" `Quick test_movie_db_shape;
          Alcotest.test_case "movie_db T(p)" `Quick test_movie_db_t_paths;
          Alcotest.test_case "edges_with_label" `Quick test_edges_with_label;
          Alcotest.test_case "iter_in" `Quick test_iter_in;
          Alcotest.test_case "in/out degree sum" `Quick test_in_out_degree_sum;
          Alcotest.test_case "idref heuristic" `Quick test_idref_heuristic;
          Alcotest.test_case "root_edge" `Quick test_root_edge;
          Alcotest.test_case "unknown nid rejected" `Quick test_unknown_nid_rejected
        ] );
      ( "of_document",
        [ Alcotest.test_case "basic encoding" `Quick test_of_document_basic;
          Alcotest.test_case "attrs and values" `Quick test_of_document_attrs_and_values;
          Alcotest.test_case "idref labels" `Quick test_of_document_idref_labels;
          Alcotest.test_case "id makes no edge" `Quick test_of_document_id_not_an_edge;
          Alcotest.test_case "dangling ref dropped" `Quick test_of_document_dangling_ref;
          Alcotest.test_case "no idref config" `Quick test_of_document_no_idref_config;
          Alcotest.test_case "graph stats" `Quick test_graph_stats
        ] );
      ( "forest",
        [ Alcotest.test_case "of_document graphs" `Quick test_forest_of_document;
          Alcotest.test_case "non-forests rejected" `Quick test_forest_rejects;
          Alcotest.test_case "kept by the update ops" `Quick test_forest_updates
        ] );
      ( "caches",
        [ Alcotest.test_case "Ged01 update ops" `Quick (test_carried_caches "Ged01");
          Alcotest.test_case "Flix01 update ops" `Quick (test_carried_caches "Flix01");
          Alcotest.test_case "movie_db update ops" `Quick test_carried_caches_non_forest
        ] );
      ( "subtree",
        [ Alcotest.test_case "document roundtrip" `Quick test_subtree_roundtrip_document;
          Alcotest.test_case "fragment" `Quick test_subtree_fragment;
          Alcotest.test_case "placeholder references" `Quick test_subtree_default_tag;
          Alcotest.test_case "id_of" `Quick test_id_of
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_t_path_chains;
          QCheck_alcotest.to_alcotest prop_length1_equals_grouping;
          QCheck_alcotest.to_alcotest prop_semijoin_parents;
          QCheck_alcotest.to_alcotest prop_semijoin_endpoints;
          QCheck_alcotest.to_alcotest prop_semijoin_children;
          QCheck_alcotest.to_alcotest prop_join_reference
        ] )
    ]
