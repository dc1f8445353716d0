(* Shared graph fixtures for the test suites.

   [movie_db] mirrors the paper's running example (Figure 1): a MovieDB
   with actors, directors and movies cross-linked through @actor/@movie
   IDREF attribute nodes, making the graph cyclic.

   Node ids (Builder assigns densely in creation order):
     0 MovieDB (root)
     1 actor          MovieDB--actor-->1,  @actor node 9 --actor--> 1
     2 name leaf      1--name-->2
     3 actor          MovieDB--actor-->3,  @actor node 9 --actor--> 3
     4 name leaf      3--name-->4
     5 director       MovieDB--director-->5
     6 movie          MovieDB--movie-->6, 5--movie-->6, @movie node 10 --movie--> 6
     7 title leaf     6--title-->7
     8 name leaf      5--name-->8
     9 @actor attr    6--@actor-->9
     10 @movie attr   1--@movie-->10 *)

open Repro_graph

let movie_db () =
  let b = Data_graph.Builder.create () in
  let n v = Data_graph.Builder.add_node ?value:v b in
  let root = n None in
  let actor1 = n None in
  let name1 = n (Some "Kevin") in
  let actor2 = n None in
  let name2 = n (Some "Jeanne") in
  let director = n None in
  let movie = n None in
  let title = n (Some "Waterworld") in
  let dname = n (Some "Reynolds") in
  let at_actor = n None in
  let at_movie = n None in
  let e = Data_graph.Builder.add_edge b in
  e root "actor" actor1;
  e root "actor" actor2;
  e root "director" director;
  e root "movie" movie;
  e actor1 "name" name1;
  e actor2 "name" name2;
  e director "movie" movie;
  e director "name" dname;
  e movie "title" title;
  e movie "@actor" at_actor;
  e at_actor "actor" actor1;
  e at_actor "actor" actor2;
  e actor1 "@movie" at_movie;
  e at_movie "movie" movie;
  Data_graph.Builder.build ~root b

(* [movie_doc] is the running example as an XML document encoded per
   Section 3: the same five tags and two IDREF attributes as [movie_db],
   but the movie sits under its director and is referenced from the
   actor, so the graph is a document forest (every element has one
   parent; the cycle runs through the @actor/@movie attribute nodes). *)
let movie_doc () =
  Data_graph.of_document ~idref_attrs:[ "movie"; "actor" ]
    (Repro_xml.Xml_parser.parse_string
       {|<MovieDB>
  <actor id="a1" movie="m1"><name>Kevin</name></actor>
  <actor id="a2"><name>Jeanne</name></actor>
  <director><name>Reynolds</name>
    <movie id="m1" actor="a1 a2"><title>Waterworld</title></movie></director>
</MovieDB>|})

let label g s =
  match Label.find (Data_graph.labels g) s with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "fixture label %S not in graph" s)

let path g names = List.map (label g) names

(* A small strictly tree-shaped graph: root with two 'a' children, each with
   'b' and 'c' leaves carrying values. *)
let small_tree () =
  let b = Data_graph.Builder.create () in
  let n v = Data_graph.Builder.add_node ?value:v b in
  let root = n None in
  let a1 = n None in
  let b1 = n (Some "vb1") in
  let c1 = n (Some "vc1") in
  let a2 = n None in
  let b2 = n (Some "vb2") in
  let e = Data_graph.Builder.add_edge b in
  e root "a" a1;
  e a1 "b" b1;
  e a1 "c" c1;
  e root "a" a2;
  e a2 "b" b2;
  Data_graph.Builder.build ~root b

(* Random DAG generator for property tests: nodes 0..n-1, edges only from
   lower to higher ids so the graph is acyclic; labels drawn from a small
   alphabet so paths collide interestingly. Node 0 is the root and every
   node is reachable from it. *)
let gen_dag =
  QCheck.Gen.(
    int_range 2 14 >>= fun n ->
    int_range 2 4 >>= fun n_labels ->
    let labels = Array.init n_labels (fun i -> Printf.sprintf "l%d" i) in
    (* every node >0 gets one incoming edge from a random earlier node
       (reachability), plus a few random extra edges *)
    let gen_parent v = map (fun p -> (p, v)) (int_bound (v - 1)) in
    flatten_l (List.init (n - 1) (fun i -> gen_parent (i + 1))) >>= fun spine ->
    list_size (int_bound (2 * n))
      (int_bound (n - 1) >>= fun u ->
       int_bound (n - 1) >>= fun v ->
       pure (min u v, max u v))
    >>= fun extra ->
    let extra = List.filter (fun (u, v) -> u <> v) extra in
    flatten_l
      (List.map
         (fun (u, v) -> map (fun l -> (u, labels.(l), v)) (int_bound (n_labels - 1)))
         (spine @ extra))
    >>= fun edges ->
    pure (n, edges))

let dag_of_spec (n, edges) =
  let b = Data_graph.Builder.create () in
  let nodes = Array.init n (fun i -> Data_graph.Builder.add_node ~value:(Printf.sprintf "v%d" i) b) in
  List.iter (fun (u, l, v) -> Data_graph.Builder.add_edge b nodes.(u) l nodes.(v)) edges;
  Data_graph.Builder.build ~root:nodes.(0) b

let arb_dag =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "%d nodes; %s" n
        (String.concat ", " (List.map (fun (u, l, v) -> Printf.sprintf "%d-%s->%d" u l v) edges)))
    gen_dag
