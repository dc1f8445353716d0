type node = {
  id : int;
  mutable extent : Repro_graph.Edge_set.t;
  out : (Repro_graph.Label.t, node) Hashtbl.t;
  mutable visited : bool;
  mutable handle : Repro_storage.Extent_store.handle option;
}

type t = {
  mutable next_id : int;
  root : node;
}
[@@apex.shared]

let mk_node id extent =
  { id; extent; out = Hashtbl.create 4; visited = false; handle = None }

let create ~root_extent = { next_id = 1; root = mk_node 0 root_extent }

let xroot t = t.root

let new_node t =
  let n = mk_node t.next_id Repro_graph.Edge_set.empty in
  t.next_id <- t.next_id + 1;
  n

let make_edge x l y = Hashtbl.replace x.out l y

let out_edges x =
  Hashtbl.fold (fun l y acc -> (l, y) :: acc) x.out []
  |> List.sort (fun (l1, _) (l2, _) -> Int.compare l1 l2)

let iter_reachable t f =
  let seen = Hashtbl.create 64 in
  let rec go n =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id ();
      f n;
      Hashtbl.iter (fun _ y -> go y) n.out
    end
  in
  go t.root

let reachable t =
  let acc = ref [] in
  iter_reachable t (fun n -> acc := n :: !acc);
  List.rev !acc

(* Fresh node records (same ids, shared extent arrays, no store handles)
   for the reachable part; out-edges are re-added in label order, as an
   image load adds them. *)
let copy t =
  let copies : (int, node) Hashtbl.t = Hashtbl.create 64 in
  iter_reachable t (fun n ->
      Hashtbl.add copies n.id
        { id = n.id; extent = n.extent; out = Hashtbl.create 4; visited = false; handle = None });
  let node_of n =
    match Hashtbl.find_opt copies n.id with
    | Some c -> c
    | None -> invalid_arg "Gapex.copy: node not reachable from the root"
  in
  iter_reachable t (fun n ->
      let c = node_of n in
      List.iter (fun (l, y) -> Hashtbl.replace c.out l (node_of y)) (out_edges n));
  ({ next_id = t.next_id; root = node_of t.root }, node_of)

let reset_visited t = iter_reachable t (fun n -> n.visited <- false)

let prune_edges t ~live =
  (* snapshot the node list first: removing edges during [iter_reachable]
     would mutate the tables being traversed *)
  List.iter
    (fun n ->
      let dead = Hashtbl.fold (fun l y acc -> if live y then acc else l :: acc) n.out [] in
      List.iter (Hashtbl.remove n.out) dead)
    (reachable t)

let stats t =
  let nodes = ref 0 and edges = ref 0 in
  iter_reachable t (fun n ->
      incr nodes;
      edges := !edges + Hashtbl.length n.out);
  (!nodes, !edges)
