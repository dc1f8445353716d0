module G = Repro_graph.Data_graph
module Edge_set = Repro_graph.Edge_set
module Label_path = Repro_pathexpr.Label_path

let required_of_workload g ~workload ~min_support =
  let all_labels = List.init (Repro_graph.Label.count (G.labels g)) (fun i -> i) in
  Repro_mining.Path_miner.required ~min_support ~all_labels workload

(* longest required suffix of [rev_path] (a reversed label path), using a
   reverse trie of the required set *)
module Trie = struct
  type t = {
    children : (int, t) Hashtbl.t;
    mutable terminal : Label_path.t option;  (* the required path ending here *)
  }

  let create () = { children = Hashtbl.create 8; terminal = None }

  let insert t p =
    let rec go node = function
      | [] -> node.terminal <- Some p
      | l :: rest ->
        let child =
          match Hashtbl.find_opt node.children l with
          | Some c -> c
          | None ->
            let c = create () in
            Hashtbl.add node.children l c;
            c
        in
        go child rest
    in
    go t (List.rev p)

  let longest_suffix t rev_path =
    let rec go node best = function
      | [] -> best
      | l :: rest ->
        (match Hashtbl.find_opt node.children l with
         | Some c -> go c (match c.terminal with Some p -> Some p | None -> best) rest
         | None -> best)
    in
    go t None rev_path
end

let check_acyclic g =
  let n = G.n_nodes g in
  let state = Array.make n 0 in
  (* 0 = unseen, 1 = on stack, 2 = done *)
  let rec visit v =
    if state.(v) = 1 then invalid_arg "Apex_spec: data graph is cyclic"
    else if state.(v) = 0 then begin
      state.(v) <- 1;
      G.iter_out g v (fun _ w -> visit w);
      state.(v) <- 2
    end
  in
  for v = 0 to n - 1 do
    visit v
  done

let target_edge_sets g ~required =
  check_acyclic g;
  let trie = Trie.create () in
  List.iter (Trie.insert trie) required;
  let buckets : (Label_path.t, Repro_util.Int_sorted.Buf.t) Hashtbl.t = Hashtbl.create 64 in
  let add p edge =
    let vec =
      match Hashtbl.find_opt buckets p with
      | Some v -> v
      | None ->
        let v = Repro_util.Int_sorted.Buf.create 8 in
        Hashtbl.add buckets p v;
        v
    in
    Repro_util.Int_sorted.Buf.push vec edge
  in
  (* enumerate every root data path (finite: acyclic) *)
  let rec walk u rev_labels =
    G.iter_out g u (fun l v ->
        let rev_labels = l :: rev_labels in
        (match Trie.longest_suffix trie rev_labels with
         | Some p -> add p (Edge_set.pack u v)
         | None -> ());
        walk v rev_labels)
  in
  walk (G.root g) [];
  Hashtbl.fold
    (fun p vec acc -> (p, Edge_set.of_packed_array (Repro_util.Int_sorted.Buf.to_set vec)) :: acc)
    buckets []
  |> List.sort (fun (a, _) (b, _) -> Label_path.compare a b)

let apex_extents t =
  let acc = ref [] in
  Hash_tree.iter_slots (Apex.tree t) (fun suffix slot _is_remainder ->
      match Hash_tree.slot_get slot with
      | Some node -> acc := (suffix, node.Gapex.extent) :: !acc
      | None -> ());
  List.sort (fun (a, _) (b, _) -> Label_path.compare a b) !acc
