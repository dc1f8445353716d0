module G = Repro_graph.Data_graph
module Edge_set = Repro_graph.Edge_set
module Cost = Repro_storage.Cost
module Vec = Repro_util.Vec
module Tr = Repro_telemetry.Trace

type t = {
  mutable graph : G.t;
  gapex : Gapex.t;
  tree : Hash_tree.t;
  mutable store : Repro_storage.Extent_store.t option;
  endpoint_cache : (int, int array) Hashtbl.t [@apex.guarded "memo"];
      (* Gapex.node id -> endpoints of its extent; memoizes the sort that
         [Edge_set.endpoints] performs. Invalidated whenever extents can
         change (update traversal) or the store is replaced. The "memo"
         discipline: reader-path fills are idempotent recomputations; a
         frozen instance pre-warms the memo and never fills it again, so
         reader domains share it without a lock. *)
  mutable frozen : bool;
      (* set once by [freeze], before the instance is published to reader
         domains; from then on every mutator raises and the read path
         stores nothing *)
  mutable reach : (G.t * Bytes.t) option;
      (* the root-reachability bitmap incremental maintenance patches per
         update op, with the graph version it describes; stale (and
         ignored) once [graph] moves on without it *)
  mutable copied : (int, Edge_set.t * int array) Hashtbl.t;
      (* Gapex.node id -> (extent, its endpoints) as handed to the last
         [frozen_copy]. Extent arrays are immutable and replaced on change,
         so an entry stays exact while the node holds that very array. Kept
         apart from [endpoint_cache] so publishing does not warm the
         writer's own query memo (whose misses charge costs). *)
}
[@@apex.shared]

let endpoint_cache_cap = 16_384

let graph t = t.graph
let tree t = t.tree
let summary t = t.gapex
let stats t = Gapex.stats t.gapex

(* Outgoing data edges of the endpoints of [source], grouped by label.
   Returned sorted by label for deterministic traversal. *)
let successor_groups g source =
  let by_label : (int, int Vec.t) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun v ->
      G.iter_out g v (fun l w ->
          let vec =
            match Hashtbl.find_opt by_label l with
            | Some vec -> vec
            | None ->
              let vec = Vec.create () in
              Hashtbl.add by_label l vec;
              vec
          in
          Vec.push vec (Edge_set.pack v w)))
    (Edge_set.endpoints source);
  Hashtbl.fold (fun l vec acc -> (l, Edge_set.of_packed_array (Vec.to_array vec)) :: acc) by_label []
  |> List.sort (fun (l1, _) (l2, _) -> Int.compare l1 l2)

(* The unified Figure 6 / Figure 11 traversal. Tasks carry the G_APEX node,
   the extent delta that caused the (re)visit, and the reversed label path
   by which the traversal reached the node. *)
let run_update t =
  Hashtbl.reset t.endpoint_cache;
  Gapex.reset_visited t.gapex;
  let stack = Stack.create () in
  Stack.push (Gapex.xroot t.gapex, Edge_set.empty, []) stack;
  while not (Stack.is_empty stack) do
    let xnode, delta, rev_path = Stack.pop stack in
    let first_visit = not xnode.Gapex.visited in
    if first_visit || not (Edge_set.is_empty delta) then begin
      xnode.Gapex.visited <- true;
      (* on a first visit verify everything the full extent implies; on a
         revisit only the delta's consequences can have changed *)
      let source = if first_visit then xnode.Gapex.extent else delta in
      List.iter
        (fun (l, edges) ->
          let rev_child = l :: rev_path in
          match Hash_tree.lookup_slot ~create_head:true t.tree ~rev_path:rev_child with
          | None -> assert false (* create_head guarantees a slot *)
          | Some slot ->
            let xchild =
              match Hash_tree.slot_get slot with
              | Some n -> n
              | None ->
                let n = Gapex.new_node t.gapex in
                Hash_tree.slot_set slot (Some n);
                (* a frequent path earned its own summary node + extent *)
                Tr.event Tr.Path_promoted n.Gapex.id;
                n
            in
            let grow = Edge_set.diff edges xchild.Gapex.extent in
            xchild.Gapex.extent <- Edge_set.union xchild.Gapex.extent grow;
            Gapex.make_edge xnode l xchild;
            Stack.push (xchild, grow, rev_child) stack)
        (successor_groups t.graph source)
    end
  done

let build g =
  let t =
    { graph = g;
      gapex = Gapex.create ~root_extent:(G.root_edge g);
      tree = Hash_tree.create ();
      store = None;
      endpoint_cache = Hashtbl.create 256;
      frozen = false;
      reach = None;
      copied = Hashtbl.create 1
    }
  in
  run_update t;
  t

let frozen t = t.frozen

let check_not_frozen t ctx =
  if t.frozen then
    invalid_arg (Printf.sprintf "Apex.%s: the index is frozen (published epoch)" ctx)

let refresh ?decide ?(ensure = []) t ~workload ~min_support =
  check_not_frozen t "refresh";
  let rtok = Tr.begin_ Tr.Refresh in
  let mtok = Tr.begin_ Tr.Mine in
  Hash_tree.reset_marks t.tree;
  Hash_tree.count_workload t.tree workload;
  List.iter (Hash_tree.ensure_path t.tree) ensure;
  let decide =
    match decide with
    | Some d -> d
    | None ->
      let k =
        Repro_mining.Path_miner.support_count ~min_support
          ~n_queries:(List.length workload)
      in
      fun ~path:_ ~count ~is_new:_ -> count >= k
  in
  Tr.end_arg mtok (List.length workload);
  let ptok = Tr.begin_ Tr.Prune in
  Hash_tree.prune t.tree ~decide;
  Tr.end_ ptok;
  t.store <- None;
  let ttok = Tr.begin_ Tr.Traverse in
  run_update t;
  Tr.end_arg ttok (fst (Gapex.stats t.gapex));
  Tr.end_ rtok

let extend_data t g' =
  check_not_frozen t "extend_data";
  let g = t.graph in
  if G.n_nodes g' < G.n_nodes g || G.n_edges g' < G.n_edges g then
    invalid_arg "Apex.extend_data: the new graph must extend the indexed one";
  for v = 0 to G.n_nodes g - 1 do
    if G.out_degree g' v < G.out_degree g v then
      invalid_arg "Apex.extend_data: the new graph must extend the indexed one"
  done;
  t.graph <- g';
  t.store <- None;
  run_update t

let build_adapted g ~workload ~min_support =
  let t = build g in
  refresh t ~workload ~min_support;
  t

let assemble ~graph ~gapex ~tree =
  { graph;
    gapex;
    tree;
    store = None;
    endpoint_cache = Hashtbl.create 256;
    frozen = false;
    reach = None;
    copied = Hashtbl.create 1
  }

let materialize ?(codec = `Block) t pool =
  check_not_frozen t "materialize";
  let store = Repro_storage.Extent_store.create ~codec pool in
  List.iter
    (fun (n : Gapex.node) ->
      n.Gapex.handle <- Some (Repro_storage.Extent_store.append store n.Gapex.extent))
    (Gapex.reachable t.gapex);
  (* endpoints are still valid, but clearing keeps the invariant simple:
     the first query against a fresh store pays its I/O *)
  Hashtbl.reset t.endpoint_cache;
  t.store <- Some store

let load_extent ?cost t (n : Gapex.node) =
  match t.store, n.Gapex.handle with
  | Some store, Some h -> Repro_storage.Extent_store.load ?cost store h
  | _ ->
    (match cost with
     | Some c -> c.Cost.extent_edges <- c.Cost.extent_edges + Edge_set.cardinal n.Gapex.extent
     | None -> ());
    n.Gapex.extent

(* --- block-view extent access (decode-on-gallop) --- *)

module ES = Repro_storage.Extent_store

(* An extent as the join kernels consume it: either a materialized edge
   set, or a still-compressed block view whose semijoins skip and decode
   per block. Which one a node yields depends on the store codec; callers
   go through [ext_*] and never branch on the representation again. *)
type extent_ref =
  | Mem of Edge_set.t
  | View of ES.view

let extent_ref ?cost t (n : Gapex.node) =
  match t.store, n.Gapex.handle with
  | Some store, Some h ->
    (match ES.load_view ?cost store h with
     | Some v -> View v
     | None -> Mem (ES.load ?cost store h))
  | _ ->
    (match cost with
     | Some c -> c.Cost.extent_edges <- c.Cost.extent_edges + Edge_set.cardinal n.Gapex.extent
     | None -> ());
    Mem n.Gapex.extent

let ext_cardinal = function
  | Mem e -> Edge_set.cardinal e
  | View v -> ES.view_cardinal v

(* the fully materialized set behind a reference; a [View] resolves
   through the store's decoded-extent LRU, so repeated forcing decodes
   once *)
let ext_materialize ?cost = function
  | Mem e -> e
  | View v -> ES.load ?cost (ES.view_store v) (ES.view_handle v)

let ext_semijoin_endpoints ?cost r frontier =
  match r with
  | Mem e -> Edge_set.semijoin_endpoints e frontier
  | View v ->
    let tok = Tr.begin_ Tr.Decode in
    if tok < 0 then ES.view_semijoin_endpoints ?cost v frontier
    else begin
      let store = ES.view_store v in
      let d0 = ES.total_blocks_decoded store and s0 = ES.total_blocks_skipped store in
      let out = ES.view_semijoin_endpoints ?cost v frontier in
      Tr.end_arg tok (ES.total_blocks_decoded store - d0);
      let skipped = ES.total_blocks_skipped store - s0 in
      if skipped > 0 then Tr.event Tr.Block_skip skipped;
      out
    end

let ext_semijoin_children ?cost r sorted_children =
  match r with
  | Mem e -> Edge_set.semijoin_children e sorted_children
  | View v ->
    let tok = Tr.begin_ Tr.Decode in
    if tok < 0 then ES.view_semijoin_children ?cost v sorted_children
    else begin
      let store = ES.view_store v in
      let d0 = ES.total_blocks_decoded store and s0 = ES.total_blocks_skipped store in
      let out = ES.view_semijoin_children ?cost v sorted_children in
      Tr.end_arg tok (ES.total_blocks_decoded store - d0);
      let skipped = ES.total_blocks_skipped store - s0 in
      if skipped > 0 then Tr.event Tr.Block_skip skipped;
      out
    end

(* --- incremental-maintenance hooks (lib/update) --- *)

let store t = t.store

let set_graph t g =
  check_not_frozen t "set_graph";
  t.graph <- g

let reach t =
  match t.reach with
  | Some (g, bits) when g == t.graph -> Some bits
  | Some _ | None -> None

let record_reach t bits =
  check_not_frozen t "record_reach";
  t.reach <- Some (t.graph, bits)

let invalidate_endpoints t nodes =
  check_not_frozen t "invalidate_endpoints";
  List.iter (fun (n : Gapex.node) -> Hashtbl.remove t.endpoint_cache n.Gapex.id) nodes

let max_delta_chain = 4

let flush_dirty t dirty =
  check_not_frozen t "flush_dirty";
  match t.store with
  | None -> ()
  | Some store ->
    List.iter
      (fun ((n : Gapex.node), removed, added) ->
        if not (Edge_set.is_empty removed && Edge_set.is_empty added) then begin
          let handle =
            match n.Gapex.handle with
            | Some base
              when Repro_storage.Extent_store.chain_length base < max_delta_chain
                   && Edge_set.cardinal removed + Edge_set.cardinal added
                      < Edge_set.cardinal n.Gapex.extent ->
              Repro_storage.Extent_store.append_delta store ~base ~removed ~added
            | Some _ | None ->
              (* new node, long chain, or a delta no smaller than the
                 extent: write (or compact to) the full extent *)
              Repro_storage.Extent_store.append store n.Gapex.extent
          in
          n.Gapex.handle <- Some handle
        end)
      dirty;
    Tr.event Tr.Delta_flushed (List.length dirty)

let load_endpoints ?cost t (n : Gapex.node) =
  match Hashtbl.find_opt t.endpoint_cache n.Gapex.id with
  | Some eps -> eps
  | None ->
    let eps =
      (* a block view streams the endpoints out of the compressed form
         instead of materializing the extent first *)
      match extent_ref ?cost t n with
      | Mem e -> Edge_set.endpoints e
      | View v ->
        let tok = Tr.begin_ Tr.Decode in
        if tok < 0 then ES.view_endpoints ?cost v
        else begin
          let store = ES.view_store v in
          let d0 = ES.total_blocks_decoded store in
          let out = ES.view_endpoints ?cost v in
          Tr.end_arg tok (ES.total_blocks_decoded store - d0);
          out
        end
    in
    if not t.frozen then begin
      (* a frozen index is shared read-only across domains: the memo was
         pre-warmed by [freeze], and a miss (evicted by the cap during
         pre-warm) recomputes without storing *)
      if Hashtbl.length t.endpoint_cache >= endpoint_cache_cap then
        Hashtbl.reset t.endpoint_cache;
      Hashtbl.add t.endpoint_cache n.Gapex.id eps
    end;
    eps

(* --- read-only publication (lib/server) --- *)

let freeze t =
  if not t.frozen then begin
    (match t.store with
     | Some _ ->
       invalid_arg
         "Apex.freeze: cannot freeze a materialized index (the store and \
          buffer pool mutate on reads); freeze an unmaterialized copy"
     | None -> ());
    (* pre-warm the endpoint memo over every reachable summary node so the
       frozen read path is pure Hashtbl lookups *)
    List.iter
      (fun (n : Gapex.node) -> ignore (load_endpoints t n : int array))
      (Gapex.reachable t.gapex);
    t.frozen <- true
  end

(* An epoch for reader domains: private G_APEX nodes and hash tree, shared
   immutable extents, a graph snapshot sharing the carried caches, and an
   endpoint memo seeded from the writer's memo and from what the last copy
   computed (patched by the extent delta where the extent changed since),
   so [freeze] computes only the entries of new nodes. *)
let frozen_copy t =
  let gapex, node_of = Gapex.copy t.gapex in
  let copy =
    { graph = G.snapshot t.graph;
      gapex;
      tree = Hash_tree.copy t.tree ~node_of;
      store = None;
      endpoint_cache = Hashtbl.create 256;
      frozen = false;
      reach = None;
      copied = Hashtbl.create 1
    }
  in
  let nodes = Gapex.reachable t.gapex in
  List.iter
    (fun (n : Gapex.node) ->
      let extent = n.Gapex.extent in
      let known =
        match Hashtbl.find_opt t.endpoint_cache n.Gapex.id with
        | Some eps -> Some eps
        | None ->
          (match Hashtbl.find_opt t.copied n.Gapex.id with
           | Some (before, eps) when before == extent -> Some eps
           | Some (before, eps) ->
             (* the extent changed since: patch by the delta, no sort *)
             Some
               (Edge_set.endpoints_after ~before:eps ~removed:(Edge_set.diff before extent)
                  ~added:(Edge_set.diff extent before) extent)
           | None -> None)
      in
      Option.iter (Hashtbl.replace copy.endpoint_cache n.Gapex.id) known)
    nodes;
  freeze copy;
  let copied = Hashtbl.create (List.length nodes) in
  List.iter
    (fun (n : Gapex.node) ->
      match Hashtbl.find_opt copy.endpoint_cache n.Gapex.id with
      | Some eps -> Hashtbl.replace copied n.Gapex.id (n.Gapex.extent, eps)
      | None -> ())
    nodes;
  if not t.frozen then t.copied <- copied;
  copy
