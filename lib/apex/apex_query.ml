module G = Repro_graph.Data_graph
module Edge_set = Repro_graph.Edge_set
module Label = Repro_graph.Label
module Int_sorted = Repro_util.Int_sorted
module Cost = Repro_storage.Cost
module Query = Repro_pathexpr.Query
module Tr = Repro_telemetry.Trace

(* join accounting: probe length plus the (possibly still-compressed)
   extent's cardinality, matching Edge_set-era semantics exactly *)
let charge_join_ref cost frontier ext =
  match cost with
  | Some c ->
    c.Cost.join_edges <- c.Cost.join_edges + Array.length frontier + Apex.ext_cardinal ext
  | None -> ()

(* The (approximate) extent of a prefix as the chain join consumes it: a
   single summary node stays in whatever representation the store serves —
   with the [`Block] codec a compressed view the semijoin kernels can skip
   through — and only genuine multi-node unions materialize. *)
let union_extent_refs ?cost t nodes =
  let ftok = Tr.begin_ Tr.Fetch in
  let r =
    match nodes with
    | [ n ] -> Apex.extent_ref ?cost t n
    | ns -> Apex.Mem (Edge_set.union_many (List.map (fun n -> Apex.load_extent ?cost t n) ns))
  in
  Tr.end_arg ftok (List.length nodes);
  let jtok = Tr.begin_ Tr.Join in
  Tr.end_arg jtok (Apex.ext_cardinal r);
  r

let union_endpoints ?cost t nodes =
  let ftok = Tr.begin_ Tr.Fetch in
  let arrays = List.map (fun n -> Apex.load_endpoints ?cost t n) nodes in
  Tr.end_arg ftok (List.length arrays);
  let jtok = Tr.begin_ Tr.Join in
  let u = Int_sorted.union_many arrays in
  Tr.end_arg jtok (Array.length u);
  u

(* locate a (sub)path; each lookup touches one hash-tree page (H_APEX is
   shallow: a handful of hnodes per suffix chain fit one page) *)
let locate ?cost t ~rev_path =
  (match cost with
   | Some c -> c.Cost.struct_pages <- c.Cost.struct_pages + 1
   | None -> ());
  Hash_tree.locate ?cost (Apex.tree t) ~rev_path

let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

(* Multi-way extent join for a prefix sweep: [anchor_nodes] exactly cover
   the prefix; [chain] holds the (approximate) extent unions of each longer
   prefix, in path order. One forward semijoin pass fully reduces the last
   set of a chain query, and only the reachable-node frontier needs to be
   carried between steps — no intermediate edge set is materialized.

   Selectivity ordering: before the forward pass, backward semijoin
   reductions run wherever a set dwarfs its successor (cardinalities are
   already in hand), so the most selective extents prune their bigger
   neighbors first. Each backward reduction only discards edges with no
   successor in the next set, which cannot change the final frontier. *)
let backward_reduce_ratio = 8

let chain_join ?cost t anchor_nodes chain =
  let jtok = Tr.begin_ Tr.Join in
  let result =
    let chain = Array.of_list chain in
    let k = Array.length chain in
    let empty r = Apex.ext_cardinal r = 0 in
    if Array.exists empty chain then [||]
    else begin
      let shrunk = ref false in
      for i = k - 2 downto 0 do
        if
          Apex.ext_cardinal chain.(i)
          > backward_reduce_ratio * Apex.ext_cardinal chain.(i + 1)
        then begin
          let next_parents = Edge_set.parents (Apex.ext_materialize ?cost chain.(i + 1)) in
          charge_join_ref cost next_parents chain.(i);
          chain.(i) <- Apex.Mem (Apex.ext_semijoin_children ?cost chain.(i) next_parents);
          shrunk := true
        end
      done;
      if !shrunk && Array.exists empty chain then [||]
      else begin
        let frontier = ref (union_endpoints ?cost t anchor_nodes) in
        let i = ref 0 in
        while !i < k && Array.length !frontier > 0 do
          charge_join_ref cost !frontier chain.(!i);
          frontier := Apex.ext_semijoin_endpoints ?cost chain.(!i) !frontier;
          incr i
        done;
        !frontier
      end
    end
  in
  Tr.end_arg jtok (Array.length result);
  result

let eval_q1 ?cost t path =
  let n = List.length path in
  let rev = List.rev path in
  match locate ?cost t ~rev_path:rev with
  | None -> [||]
  | Some (Hash_tree.Exact nodes) ->
    (* the whole path is a stored suffix: the answer is a k-way union of
       memoized endpoint arrays — no joins, no sorting *)
    union_endpoints ?cost t nodes
  | Some (Hash_tree.Approx nodes_full) ->
    (* sweep prefixes l_i..l_j for j = n-1 downto 1, keeping each looked-up
       edge set; the sweep must reach an exactly-covered prefix by j = 1
       since every length-1 path is required *)
    let e_full = union_extent_refs ?cost t nodes_full in
    let rec sweep j acc =
      if j = 0 then [||] (* unreachable: length-1 lookups are exact *)
      else
        let rev_prefix = drop (n - j) rev in
        match locate ?cost t ~rev_path:rev_prefix with
        | None -> [||]
        | Some (Hash_tree.Exact anchor_nodes) -> chain_join ?cost t anchor_nodes acc
        | Some (Hash_tree.Approx nodes) ->
          sweep (j - 1) (union_extent_refs ?cost t nodes :: acc)
    in
    sweep (n - 1) [ e_full ]

(* The paper's QTYPE2 plan: (1) query pruning and rewriting by navigating
   G_APEX from the nodes whose incoming label is [la], collecting every
   label sequence la.m_1...m_k.lb reachable over non-attribute edges
   (Section 6.1's no-dereference rule; only the final [lb] step may be an
   attribute edge); (2) each rewritten sequence is answered. The search
   joins extents along every branch as its pruning oracle, and those
   running joins are the answers: the union of the frontiers over all
   branches spelling a sequence IS that sequence's QTYPE1 answer (each
   branch's join is a subset of T(seq) by construction, and every data
   path has a witnessing branch). *)
let max_rewrite_depth = 16

let eval_q2_rewrite ?cost ?on_sequence t la lb =
  let labels = G.labels (Apex.graph t) in
  match Hash_tree.locate ?cost (Apex.tree t) ~rev_path:[ la ] with
  | None | Some (Hash_tree.Approx _) -> [||]
  | Some (Hash_tree.Exact starts) ->
    let pages_seen = Hashtbl.create 32 in
    let visit (node : Gapex.node) =
      match cost with
      | Some c ->
        c.Cost.index_node_visits <- c.Cost.index_node_visits + 1;
        let page = node.Gapex.id / 128 in
        if not (Hashtbl.mem pages_seen page) then begin
          Hashtbl.add pages_seen page ();
          c.Cost.struct_pages <- c.Cost.struct_pages + 1
        end
      | None -> ()
    in
    (* Summary nodes may repeat along a rewriting (recursive structures
       summarize to cycles), so the search cannot simply forbid revisits;
       instead the running extent join is carried as a pruning oracle — a
       branch whose join is empty has no data witness and is cut, which is
       also what terminates cycles, with [max_rewrite_depth] as a backstop. *)
    let extent_cache : (int, Apex.extent_ref) Hashtbl.t = Hashtbl.create 64 in
    let extent_of (node : Gapex.node) =
      match Hashtbl.find_opt extent_cache node.Gapex.id with
      | Some e -> e
      | None ->
        let ftok = Tr.begin_ Tr.Fetch in
        let e = Apex.extent_ref ?cost t node in
        Tr.end_arg ftok (Apex.ext_cardinal e);
        Hashtbl.add extent_cache node.Gapex.id e;
        e
    in
    (* rewriting -> union of the running joins of the branches spelling it *)
    let rewritings : (Label.t list, int array) Hashtbl.t = Hashtbl.create 32 in
    let record seq frontier =
      Hashtbl.replace rewritings seq
        (match Hashtbl.find_opt rewritings seq with
         | Some prev -> Int_sorted.union prev frontier
         | None -> frontier)
    in
    let rec rewrite (node : Gapex.node) frontier rev_seq depth =
      visit node;
      List.iter
        (fun (l, (y : Gapex.node)) ->
          let attribute = Label.is_attribute labels l in
          if l = lb || not attribute then begin
            (match cost with
             | Some c -> c.Cost.index_edge_lookups <- c.Cost.index_edge_lookups + 1
             | None -> ());
            let ey = extent_of y in
            charge_join_ref cost frontier ey;
            let nxt = Apex.ext_semijoin_endpoints ?cost ey frontier in
            if Array.length nxt > 0 then begin
              let rev_seq = l :: rev_seq in
              if l = lb then record (List.rev rev_seq) nxt;
              if depth < max_rewrite_depth && not attribute then
                rewrite y nxt rev_seq (depth + 1)
            end
          end)
        (Gapex.out_edges node)
    in
    let jtok = Tr.begin_ Tr.Join in
    List.iter
      (fun (start : Gapex.node) ->
        rewrite start (Apex.load_endpoints ?cost t start) [ la ] 1)
      starts;
    Tr.end_arg jtok (Hashtbl.length rewritings);
    Int_sorted.union_many
      (Hashtbl.fold
         (fun seq frontier acc ->
           (match on_sequence with Some f -> f seq | None -> ());
           frontier :: acc)
         rewritings [])

(* QTYPE2 on a document forest ({!G.is_forest}) with an element [la]: the
   nodes reached from an [la]-node over non-attribute edges are its element
   descendants, so [//la//lb] is every [lb]-node with a proper tree
   ancestor tagged [la], reached through non-attribute tags. The [lb]-nodes
   come from the exact length-1 lookup through the endpoint memo; each
   ancestor step reads one tree edge and charges one [join_edges].
   Consecutive candidates often share a parent, whose verdict is reused.

   The rewritings are read off the answers instead of the summary: every
   distinct tag sequence from an [la] ancestor down to a result — the set
   the rewrite search reports. *)
let eval_q2_tree ?cost ?on_sequence t la lb =
  let g = Apex.graph t in
  let labels = G.labels g in
  match Hash_tree.locate ?cost (Apex.tree t) ~rev_path:[ lb ] with
  | None | Some (Hash_tree.Approx _) -> [||]
  | Some (Hash_tree.Exact nodes) ->
    let candidates = union_endpoints ?cost t nodes in
    let jtok = Tr.begin_ Tr.Join in
    let steps = ref 0 in
    let rec below_la u =
      u >= 0
      && begin
        incr steps;
        let l = G.tree_label g u in
        l = la || (l >= 0 && (not (Label.is_attribute labels l)) && below_la (G.tree_parent g u))
      end
    in
    let out = Array.make (Array.length candidates) 0 in
    let n_out = ref 0 in
    let last_parent = ref (-1) and last_verdict = ref false in
    Array.iter
      (fun v ->
        let p = G.tree_parent g v in
        if p <> !last_parent then begin
          last_parent := p;
          last_verdict := below_la p
        end;
        if !last_verdict then begin
          out.(!n_out) <- v;
          incr n_out
        end)
      candidates;
    (match cost with Some c -> c.Cost.join_edges <- c.Cost.join_edges + !steps | None -> ());
    let result = Array.sub out 0 !n_out in
    Tr.end_arg jtok (Array.length result);
    (match on_sequence with
     | None -> ()
     | Some f ->
       let seen = Hashtbl.create 16 in
       let rec up u below =
         if u >= 0 then begin
           let l = G.tree_label g u in
           if l = la && not (Hashtbl.mem seen (la :: below)) then begin
             Hashtbl.add seen (la :: below) ();
             f (la :: below)
           end;
           if l >= 0 && not (Label.is_attribute labels l) then up (G.tree_parent g u) (l :: below)
         end
       in
       Array.iter (fun v -> up (G.tree_parent g v) [ lb ]) result);
    result

let eval_q2 ?cost ?on_sequence t la lb =
  if G.is_forest (Apex.graph t) && not (Label.is_attribute (G.labels (Apex.graph t)) la) then
    eval_q2_tree ?cost ?on_sequence t la lb
  else eval_q2_rewrite ?cost ?on_sequence t la lb

let eval_q3 ?cost ?table t path value =
  let candidates = eval_q1 ?cost t path in
  match table with
  | Some tbl -> Repro_storage.Data_table.filter_matching ?cost tbl candidates value
  | None ->
    let keep nid =
      match G.value (Apex.graph t) nid with
      | Some v -> String.equal v value
      | None -> false
    in
    Array.of_seq (Seq.filter keep (Array.to_seq candidates))

let eval ?cost ?table ?on_sequence t compiled =
  (* plan selection is a constructor dispatch — the span is (honestly)
     zero-length, but its presence makes per-query phase coverage uniform *)
  let ptok = Tr.begin_ Tr.Plan in
  Tr.end_ ptok;
  let result =
    match compiled with
    | Query.C1 path -> eval_q1 ?cost t path
    | Query.C2 (la, lb) -> eval_q2 ?cost ?on_sequence t la lb
    | Query.C3 (path, value) -> eval_q3 ?cost ?table t path value
  in
  let mtok = Tr.begin_ Tr.Materialize in
  Tr.end_arg mtok (Array.length result);
  result

let eval_query ?cost ?table ?on_sequence t q =
  let ptok = Tr.begin_ Tr.Parse in
  let compiled = Query.compile (G.labels (Apex.graph t)) q in
  Tr.end_ ptok;
  match compiled with
  | Some compiled -> eval ?cost ?table ?on_sequence t compiled
  | None -> [||]
