module G = Repro_graph.Data_graph
module Label = Repro_graph.Label
module Edge_set = Repro_graph.Edge_set
module Apex = Repro_apex.Apex
module Gapex = Repro_apex.Gapex
module Hash_tree = Repro_apex.Hash_tree
module Vec = Repro_util.Vec

type op =
  | Insert_subtree of { parent : G.nid; fragment : Repro_xml.Xml_tree.element }
  | Delete_subtree of { node : G.nid }
  | Insert_ref of { owner : G.nid; attr : string; target : G.nid }
  | Delete_ref of { owner : G.nid; attr : string; target : G.nid }

type applied = {
  graph : G.t;
  added : (G.nid * Label.t * G.nid) list;
  removed : (G.nid * Label.t * G.nid) list;
}

let apply_graph g op =
  match op with
  | Insert_subtree { parent; fragment } ->
    let g' = G.append_subtree g ~parent fragment in
    { graph = g'; added = G.appended g g' ~parent; removed = [] }
  | Delete_subtree { node } ->
    let graph, removed = G.delete_subtree g ~node in
    { graph; added = []; removed }
  | Insert_ref { owner; attr; target } ->
    let graph, added = G.add_ref_edge g ~owner ~attr ~target in
    { graph; added; removed = [] }
  | Delete_ref { owner; attr; target } ->
    let graph, removed = G.remove_ref_edge g ~owner ~attr ~target in
    { graph; removed; added = [] }

type stats = {
  ops : int;
  edges_added : int;
  edges_removed : int;
  slots_patched : int;
  nodes_created : int;
  extents_flushed : int;
}

(* mutable accumulators threaded through the per-op maintenance passes *)
type acc = {
  mutable a_slots_patched : int;
  mutable a_nodes_created : int;
  (* G_APEX node id -> (node, its extent before the batch's first touch);
     turned into per-extent deltas for one batched flush at the end *)
  baseline : (int, Gapex.node * Edge_set.t) Hashtbl.t;
}

let reach_bitmap g =
  let seen = Bytes.make (Int.max 1 (G.n_nodes g)) '\000' in
  let stack = ref [ G.root g ] in
  Bytes.set seen (G.root g) '\001';
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: tl ->
      stack := tl;
      G.iter_out g u (fun _ v ->
          if Bytes.get seen v = '\000' then begin
            Bytes.set seen v '\001';
            stack := v :: !stack
          end)
  done;
  seen

let reached bits v = v < Bytes.length bits && Bytes.get bits v <> '\000'

(* Turn [bits], the root reachability of [g], into that of [applied.graph]
   — in place when it has room — and return it with the nodes whose
   reachability flipped, ascending. Additions are monotone on any graph:
   walk only from targets they newly reach. A removal on a document forest
   unreaches exactly the removed nodes, provided every other target of a
   removed edge is still anchored to the root by its tree-parent chain
   (then every old root path survives from its last removed edge on);
   the chains are checked, and anything else recomputes from scratch. *)
let patch_reach bits g applied =
  let g' = applied.graph in
  let n_old = G.n_nodes g and n_new = G.n_nodes g' in
  let bits =
    if Bytes.length bits >= n_new then bits
    else begin
      let grown = Bytes.make (Int.max n_new (2 * Bytes.length bits)) '\000' in
      Bytes.blit bits 0 grown 0 (Bytes.length bits);
      grown
    end
  in
  let flipped = ref [] in
  let flip v on =
    Bytes.set bits v (if on then '\001' else '\000');
    flipped := v :: !flipped
  in
  let from_scratch () =
    let fresh = reach_bitmap g' in
    flipped := [];
    for v = n_new - 1 downto 0 do
      if reached fresh v <> (v < n_old && reached bits v) then flipped := v :: !flipped
    done;
    (fresh, !flipped)
  in
  match (applied.added, applied.removed) with
  | added, [] ->
    let stack = ref [] in
    List.iter
      (fun (u, _, v) ->
        if reached bits u && not (reached bits v) then begin
          flip v true;
          stack := v :: !stack
        end)
      added;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: tl ->
        stack := tl;
        G.iter_out g' u (fun _ v ->
            if not (reached bits v) then begin
              flip v true;
              stack := v :: !stack
            end)
    done;
    (bits, List.sort Int.compare !flipped)
  | [], removed when G.is_forest g' ->
    let root = G.root g' in
    let anchored : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let rec chain v steps =
      v = root || Hashtbl.mem anchored v
      || (steps <= n_new
          &&
          let p = G.tree_parent g' v in
          p >= 0 && chain p (steps + 1)
          &&
          (Hashtbl.replace anchored v ();
           true))
    in
    let unreached = ref [] in
    let ok =
      List.for_all
        (fun (_, _, v) ->
          (not (reached bits v))
          || v = root
          || (if G.tree_parent g' v < 0 then begin
                (* lost every in-edge: unreachable now, and nothing can
                   hang below it *)
                unreached := v :: !unreached;
                G.out_degree g' v = 0
              end
              else chain v 0))
        removed
    in
    if not ok then from_scratch ()
    else begin
      List.iter (fun v -> if reached bits v then flip v false) !unreached;
      (bits, List.sort Int.compare !flipped)
    end
  | _ -> from_scratch ()

type presence = { mutable in_old : bool; mutable in_new : bool }

(* Incrementally patch [t]'s hash tree and summary so they describe
   [applied.graph] instead of [g]. See update.mli for the algorithm and the
   subpath-closure argument it rests on. *)
let maintain t ~old_graph:g ~applied ~reach ~flipped ~acc =
  let g' = applied.graph in
  let tree = Apex.tree t in
  let gapex = Apex.summary t in
  let n_old = G.n_nodes g and n_new = G.n_nodes g' in
  let was_flipped : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace was_flipped x ()) flipped;
  let reach_new_of x = x < n_new && reached reach x in
  let reach_old_of x = x < n_old && reach_new_of x <> Hashtbl.mem was_flipped x in
  (* 1. sources whose trailing label windows may have shifted: nodes within
     depth-2 forward hops of a touched target, in either graph version *)
  let dirty_src : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let frontier = ref [] in
  let touch v =
    if not (Hashtbl.mem dirty_src v) then begin
      Hashtbl.add dirty_src v ();
      frontier := v :: !frontier
    end
  in
  List.iter (fun (_, _, v) -> touch v) applied.added;
  List.iter (fun (_, _, v) -> touch v) applied.removed;
  for _ = 1 to Int.max 0 (Hash_tree.depth tree - 2) do
    let cur = !frontier in
    frontier := [];
    List.iter
      (fun v ->
        if v < n_old then G.iter_out g v (fun _ w -> touch w);
        if v < n_new then G.iter_out g' v (fun _ w -> touch w))
      cur
  done;
  (* 2. the dirty edge set, with which graph side(s) each edge lives in *)
  let dirty : (G.nid * Label.t * G.nid, presence) Hashtbl.t = Hashtbl.create 256 in
  let mark side edge =
    let p =
      match Hashtbl.find_opt dirty edge with
      | Some p -> p
      | None ->
        let p = { in_old = false; in_new = false } in
        Hashtbl.add dirty edge p;
        p
    in
    match side with `Old -> p.in_old <- true | `New -> p.in_new <- true
  in
  List.iter (fun ((u, _, _) as e) -> if reach_old_of u then mark `Old e) applied.removed;
  List.iter (fun ((u, _, _) as e) -> if reach_new_of u then mark `New e) applied.added;
  Hashtbl.iter
    (fun x () ->
      if reach_old_of x then G.iter_out g x (fun l v -> mark `Old (x, l, v));
      if reach_new_of x then G.iter_out g' x (fun l v -> mark `New (x, l, v)))
    dirty_src;
  (* a reachability flip re-routes every out-edge of the flipped node, at
     any distance from the touched region *)
  List.iter
    (fun x ->
      if reach_new_of x then G.iter_out g' x (fun l v -> mark `New (x, l, v))
      else G.iter_out g x (fun l v -> mark `Old (x, l, v)))
    flipped;
  (* 3. resolve each dirty edge's slots on both sides; diff by slot uid *)
  let in_edges_of g reach x =
    let acc = ref [] in
    G.iter_in g x (fun l w -> if reach w then acc := (l, w) :: !acc);
    !acc
  in
  let root_old = G.root g and root_new = G.root g' in
  let finder_old =
    Hash_tree.finder tree ~in_edges:(in_edges_of g reach_old_of)
      ~is_root:(fun x -> x = root_old)
  in
  let finder_new =
    Hash_tree.finder tree ~in_edges:(in_edges_of g' reach_new_of)
      ~is_root:(fun x -> x = root_new)
  in
  let removals : (int, Hash_tree.slot * int Vec.t) Hashtbl.t = Hashtbl.create 64 in
  let additions : (int, Hash_tree.slot * int Vec.t) Hashtbl.t = Hashtbl.create 64 in
  (* (source, label, slot) of every added assignment, for the linking pass *)
  let links = ref [] in
  let note table slot packed =
    let _, vec =
      let uid = Hash_tree.slot_uid slot in
      match Hashtbl.find_opt table uid with
      | Some pair -> pair
      | None ->
        let pair = (slot, Vec.create ()) in
        Hashtbl.add table uid pair;
        pair
    in
    Vec.push vec packed
  in
  Hashtbl.iter
    (fun (u, l, v) p ->
      let old_slots = if p.in_old then Hash_tree.find_slots finder_old ~label:l ~source:u else [] in
      let new_slots = if p.in_new then Hash_tree.find_slots finder_new ~label:l ~source:u else [] in
      let packed = Edge_set.pack u v in
      (* both lists are sorted by slot uid: linear symmetric difference *)
      let rec walk olds news =
        match (olds, news) with
        | [], [] -> ()
        | o :: otl, [] ->
          note removals o packed;
          walk otl []
        | [], n :: ntl ->
          note additions n packed;
          links := (u, l, n) :: !links;
          walk [] ntl
        | o :: otl, n :: ntl ->
          let c = Int.compare (Hash_tree.slot_uid o) (Hash_tree.slot_uid n) in
          if c = 0 then walk otl ntl
          else if c < 0 then begin
            note removals o packed;
            walk otl news
          end
          else begin
            note additions n packed;
            links := (u, l, n) :: !links;
            walk olds ntl
          end
      in
      walk old_slots new_slots)
    dirty;
  (* 4. patch extents: removals first, then additions, then drop emptied
     slots (as pruning does) so persistence images stay well-formed *)
  let note_dirty (n : Gapex.node) =
    if not (Hashtbl.mem acc.baseline n.Gapex.id) then
      Hashtbl.add acc.baseline n.Gapex.id (n, n.Gapex.extent)
  in
  Hashtbl.iter
    (fun _ (slot, vec) ->
      match Hash_tree.slot_get slot with
      | None -> () (* nothing was ever materialized under this slot *)
      | Some n ->
        note_dirty n;
        n.Gapex.extent <- Edge_set.diff n.Gapex.extent (Edge_set.of_packed_array (Vec.to_array vec));
        acc.a_slots_patched <- acc.a_slots_patched + 1)
    removals;
  Hashtbl.iter
    (fun _ (slot, vec) ->
      let n =
        match Hash_tree.slot_get slot with
        | Some n -> n
        | None ->
          let n = Gapex.new_node gapex in
          Hash_tree.slot_set slot (Some n);
          acc.a_nodes_created <- acc.a_nodes_created + 1;
          n
      in
      note_dirty n;
      n.Gapex.extent <- Edge_set.union n.Gapex.extent (Edge_set.of_packed_array (Vec.to_array vec));
      acc.a_slots_patched <- acc.a_slots_patched + 1)
    additions;
  Hashtbl.iter
    (fun uid (slot, _) ->
      if not (Hashtbl.mem additions uid) then
        match Hash_tree.slot_get slot with
        | Some n when Edge_set.is_empty n.Gapex.extent -> Hash_tree.slot_set slot None
        | Some _ | None -> ())
    removals;
  (* 5. re-link summary edges for the added assignments. G_APEX holds one
     child per (node, label), so each added slot must attach to exactly the
     parents that witness it — [find_assignments] pairs every resolution
     with the slot of the path it is witnessed through (a cross product
     over [find_slots] would overwrite correct edges when one (u, l) edge
     resolves to several slots along different in-paths). *)
  let xroot = Gapex.xroot gapex in
  let linked : (int * Label.t * int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (u, l, slot) ->
      match Hash_tree.slot_get slot with
      | None -> () (* the extent never became non-empty *)
      | Some child ->
        let suid = Hash_tree.slot_uid slot in
        List.iter
          (fun (parent, s) ->
            if Int.equal (Hash_tree.slot_uid s) suid then
              let x =
                match parent with
                | None -> Some xroot
                | Some ps -> Hash_tree.slot_get ps
              in
              match x with
              | None -> () (* parent path not materialized: nothing to hang on *)
              | Some x ->
                let key = (x.Gapex.id, l, child.Gapex.id) in
                if not (Hashtbl.mem linked key) then begin
                  Hashtbl.add linked key ();
                  Gapex.make_edge x l child
                end)
          (Hash_tree.find_assignments finder_new ~label:l ~source:u))
    !links

let apply_inner t ops =
  let acc = { a_slots_patched = 0; a_nodes_created = 0; baseline = Hashtbl.create 64 } in
  let n_ops = ref 0 and n_added = ref 0 and n_removed = ref 0 in
  List.iter
    (fun op ->
      let g = Apex.graph t in
      let bits = match Apex.reach t with Some bits -> bits | None -> reach_bitmap g in
      let applied = apply_graph g op in
      (* re-point the graph before maintaining: a failure in maintenance or
         flushing must not lose the data change itself *)
      Apex.set_graph t applied.graph;
      let reach, flipped = patch_reach bits g applied in
      Apex.record_reach t reach;
      incr n_ops;
      n_added := !n_added + List.length applied.added;
      n_removed := !n_removed + List.length applied.removed;
      maintain t ~old_graph:g ~applied ~reach ~flipped ~acc)
    ops;
  (* hygiene: summary edges into nodes whose slot was cleared would keep
     dead extents reachable (inflating stats and re-materialization) *)
  let gapex = Apex.summary t in
  let live_ids : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.replace live_ids (Gapex.xroot gapex).Gapex.id ();
  Hash_tree.iter_slots (Apex.tree t) (fun _ slot _ ->
      match Hash_tree.slot_get slot with
      | Some n -> Hashtbl.replace live_ids n.Gapex.id ()
      | None -> ());
  Gapex.prune_edges gapex ~live:(fun n -> Hashtbl.mem live_ids n.Gapex.id);
  Apex.invalidate_endpoints t
    (Hashtbl.fold (fun _ ((n : Gapex.node), _) acc -> n :: acc) acc.baseline []);
  let dirty =
    Hashtbl.fold
      (fun _ ((n : Gapex.node), before) rest ->
        let removed = Edge_set.diff before n.Gapex.extent in
        let added = Edge_set.diff n.Gapex.extent before in
        if Edge_set.is_empty removed && Edge_set.is_empty added then rest
        else (n, removed, added) :: rest)
      acc.baseline []
  in
  Apex.flush_dirty t dirty;
  {
    ops = !n_ops;
    edges_added = !n_added;
    edges_removed = !n_removed;
    slots_patched = acc.a_slots_patched;
    nodes_created = acc.a_nodes_created;
    extents_flushed = List.length dirty;
  }

(* a fault mid-batch propagates with the span closed, so the trace shows
   the aborted application rather than a dangling open span *)
let apply t ops =
  let module Tr = Repro_telemetry.Trace in
  let tok = Tr.begin_ Tr.Update_apply in
  match apply_inner t ops with
  | stats ->
    Tr.end_arg tok stats.ops;
    stats
  | exception e ->
    Tr.end_ tok;
    raise e
