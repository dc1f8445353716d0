module Vec = Repro_util.Vec
module Int_sorted = Repro_util.Int_sorted
module Parray = Repro_util.Parray
module SMap = Map.Make (String)
module IMap = Map.Make (Int)
module Xml_tree = Repro_xml.Xml_tree

type nid = int

(* Outgoing/incoming adjacency entries pack (label, other-node) into one int:
   labels fit 30 bits, nids fit 31 bits. *)
let pack_adj label node = (label lsl 32) lor node
let adj_label e = e lsr 32
let adj_node e = e land ((1 lsl 32) - 1)

(* Versions share structure: the per-node rows sit in persistent chunked
   arrays, an update op replaces only the rows it touches (copying their
   chunks and the small outer table), and no row is ever written again once
   a version holds it. Published epochs hold older versions (through
   [snapshot]) while the writer derives new ones. *)
type t = {
  labels : Label.table;
  root : nid;
  out : int array Parray.t;
  values : string option Parray.t;
  n_edges : int;
  idref_label_ids : Label.t list;
  ids : (nid * string) SMap.t;
      (* XML id -> (nid, tag); retained so fragments appended later can
         reference existing elements *)
  id_inv : string list IMap.t;  (* nid -> its ids, first registered first *)
  forest : bool;
      (* a document forest (see the mli): true for an encoded document,
         inherited by the update ops, checked by [Builder.build] on a
         hand-built graph *)
  mutable in_adj : int array Parray.t option;
  mutable by_label : Edge_set.t array option;
      (* the derived caches (reverse adjacency; edges per label id): built
         on first use for a graph from [of_document] or [Builder]; an update
         op carries them, patched, into the version it returns (the by-label
         sets only when the old version has them) *)
}

let labels g = g.labels
let root g = g.root
let is_forest g = g.forest
let n_nodes g = Parray.length g.out
let n_edges g = g.n_edges

let check_nid g v ctx =
  if v < 0 || v >= n_nodes g then
    invalid_arg (Printf.sprintf "Data_graph.%s: unknown nid %d" ctx v)

let value g v =
  check_nid g v "value";
  Parray.get g.values v

let out_degree g v =
  check_nid g v "out_degree";
  Array.length (Parray.get g.out v)

let iter_out g v f =
  check_nid g v "iter_out";
  Array.iter (fun e -> f (adj_label e) (adj_node e)) (Parray.get g.out v)

let fold_out g v f acc =
  check_nid g v "fold_out";
  Array.fold_left (fun acc e -> f acc (adj_label e) (adj_node e)) acc (Parray.get g.out v)

let iter_edges g f =
  Parray.iteri (fun u adj -> Array.iter (fun e -> f u (adj_label e) (adj_node e)) adj) g.out

let ensure_in_adj g =
  match g.in_adj with
  | Some a -> a
  | None ->
    let degree = Array.make (n_nodes g) 0 in
    iter_edges g (fun _ _ v -> degree.(v) <- degree.(v) + 1);
    let a = Array.map (fun d -> Array.make d 0) degree in
    let fill = Array.make (n_nodes g) 0 in
    iter_edges g (fun u l v ->
        a.(v).(fill.(v)) <- pack_adj l u;
        fill.(v) <- fill.(v) + 1);
    let a = Parray.of_array a in
    g.in_adj <- Some a;
    a

let iter_in g v f =
  check_nid g v "iter_in";
  Array.iter (fun e -> f (adj_label e) (adj_node e)) (Parray.get (ensure_in_adj g) v)

(* A node's tree (document) edge is its first incoming edge — reference
   edges always come from attribute nodes created after the referencing
   element, so they sort later in the reverse adjacency (see Subtree). *)
let in_row g v = Parray.get (ensure_in_adj g) v

let tree_in_edge_packed g v =
  let row = in_row g v in
  if Array.length row = 0 then None else Some row.(0)

let tree_label g v =
  check_nid g v "tree_label";
  let row = in_row g v in
  if Array.length row = 0 then -1 else adj_label row.(0)

let tree_parent g v =
  check_nid g v "tree_parent";
  let row = in_row g v in
  if Array.length row = 0 then -1 else adj_node row.(0)

(* The document-forest test of the mli, in one pass over the reverse
   adjacency: one label per node, every later in-edge from an attribute
   node, and every upward walk through non-attribute tree edges ending
   (walks are marked on the way up, so each node is settled once). *)
let check_forest g =
  let row = in_row g in
  let stops u = Array.length (row u) = 0 || Label.is_attribute g.labels (adj_label (row u).(0)) in
  let attribute_node u = Array.length (row u) > 0 && stops u in
  let local_ok v =
    let row = row v in
    let ok = ref true in
    Array.iteri
      (fun i e ->
        if adj_label e <> adj_label row.(0) || (i > 0 && not (attribute_node (adj_node e))) then
          ok := false)
      row;
    !ok
  in
  (* 0 = unseen, 1 = on the walk in progress, 2 = its walk ends *)
  let state = Array.make (n_nodes g) 0 in
  let rec walk u path =
    match state.(u) with
    | 2 -> Some path
    | 1 -> None
    | _ ->
      state.(u) <- 1;
      if stops u then Some (u :: path) else walk (adj_node (row u).(0)) (u :: path)
  in
  let ends v =
    match walk v [] with
    | Some path ->
      List.iter (fun u -> state.(u) <- 2) path;
      true
    | None -> false
  in
  let ok = ref true in
  for v = 0 to n_nodes g - 1 do
    if !ok && not (local_ok v && ends v) then ok := false
  done;
  !ok

let idref_labels g = g.idref_label_ids

let id_of g nid =
  check_nid g nid "id_of";
  match IMap.find_opt nid g.id_inv with
  | Some (id :: _) -> Some id
  | Some [] | None -> None

let ids g = SMap.fold (fun id (v, _) acc -> (id, v) :: acc) g.ids [] |> List.rev

(* the first registration of an id wins, as in a document's own encoding *)
let register_id (ids, id_inv) id nid tag =
  if SMap.mem id ids then (ids, id_inv)
  else
    ( SMap.add id (nid, tag) ids,
      IMap.update nid (function None -> Some [ id ] | Some l -> Some (l @ [ id ])) id_inv )

let root_edge g = Edge_set.of_list [ (Edge_set.null, g.root) ]

let ensure_by_label g =
  match g.by_label with
  | Some a -> a
  | None ->
    let groups = Array.init (Label.count g.labels) (fun _ -> Int_sorted.Buf.create 8) in
    iter_edges g (fun u l v -> Int_sorted.Buf.push groups.(l) (Edge_set.pack u v));
    let a = Array.map (fun b -> Edge_set.of_packed_array (Int_sorted.Buf.to_set b)) groups in
    g.by_label <- Some a;
    a

let edges_with_label g l =
  let a = ensure_by_label g in
  if l >= 0 && l < Array.length a then a.(l) else Edge_set.empty

let rec remove_one e = function
  | [] -> []
  | x :: tl -> if Int.equal x e then tl else x :: remove_one e tl

(* [row] without one occurrence of each entry of [entries] (a multiset),
   order kept; a deleted node loses its whole in-row, which the length test
   settles without the quadratic walk *)
let remove_entries row entries =
  if List.length entries >= Array.length row then [||]
  else begin
    let pending = ref entries in
    let keep e =
      let rest = remove_one e !pending in
      if List.compare_lengths rest !pending < 0 then begin
        pending := rest;
        false
      end
      else true
    in
    Array.of_seq (Seq.filter keep (Array.to_seq row))
  end

(* Group [(key, x)] pairs by key, each group in input order. *)
let group_by pairs =
  let tbl : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (k, x) ->
      Hashtbl.replace tbl k (x :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    pairs;
  Hashtbl.filter_map_inplace (fun _ xs -> Some (List.rev xs)) tbl;
  tbl

(* [by_label] (the per-label sets of [g]) patched for the version [out] that
   [g] becomes by losing [removed] and gaining [added]: only the sets of
   touched labels are replaced. A removed edge leaves its label's set only
   when no parallel copy of it survives in the new row. *)
let patch_by_label g ~out ~added ~removed by_label =
  let by_label' = Array.make (Int.max (Array.length by_label) (Label.count g.labels)) Edge_set.empty in
  Array.blit by_label 0 by_label' 0 (Array.length by_label);
  let gone (u, l, v) = not (Array.exists (Int.equal (pack_adj l v)) (Parray.get out u)) in
  Hashtbl.iter
    (fun l packed ->
      by_label'.(l) <- Edge_set.diff by_label'.(l) (Edge_set.of_packed_array (Array.of_list packed)))
    (group_by
       (List.filter_map
          (fun ((u, l, v) as e) -> if gone e then Some (l, Edge_set.pack u v) else None)
          removed));
  Hashtbl.iter
    (fun l packed ->
      by_label'.(l) <- Edge_set.union by_label'.(l) (Edge_set.of_packed_array (Array.of_list packed)))
    (group_by (List.map (fun (u, l, v) -> (l, Edge_set.pack u v)) added));
  by_label'

(* The derived caches of the version [out] that [g] becomes by losing the
   [removed] edges and gaining the [added] ones, each given as
   [(source, label, target)]. The reverse adjacency is always carried (the
   ops read it), with only the in-rows of touched targets replaced; the
   per-label sets only when [g] has them, so a chain of versions nothing
   asks for them (a workload generator's) never builds them. [added] lists
   edges by ascending source, a source's edges in row order, every source
   newer than the existing in-edge sources of its target (what the
   appending ops produce), so appending keeps each in-row in [iter_edges]
   order, the order [ensure_in_adj] builds. *)
let patch_caches g ~out ~added ~removed =
  let in_adj = ensure_in_adj g in
  let dropped = group_by (List.map (fun (u, l, v) -> (v, pack_adj l u)) removed) in
  let gained = group_by (List.map (fun (u, l, v) -> (v, pack_adj l u)) added) in
  let touched = Hashtbl.create 16 in
  Hashtbl.iter (fun v _ -> Hashtbl.replace touched v ()) dropped;
  Hashtbl.iter (fun v _ -> Hashtbl.replace touched v ()) gained;
  let rows =
    Hashtbl.fold
      (fun v () acc ->
        let row = if v < Parray.length in_adj then Parray.get in_adj v else [||] in
        let row =
          match Hashtbl.find_opt dropped v with Some es -> remove_entries row es | None -> row
        in
        let row =
          match Hashtbl.find_opt gained v with
          | Some es -> Array.append row (Array.of_list es)
          | None -> row
        in
        (v, row) :: acc)
      touched []
  in
  ( Some (Parray.update in_adj ~length:(Parray.length out) ~fill:[||] rows),
    Option.map (patch_by_label g ~out ~added ~removed) g.by_label )

(* The version [g] becomes with rows [out] and [values] once it loses the
   [removed] edges and gains the [added] ones: every update op builds its
   result here, with the caches patched and the edge count moved by the
   two lists; ids and IDREF labels are [g]'s unless given. *)
let version ?ids ?idref_label_ids g ~out ~values ~added ~removed =
  let in_adj, by_label = patch_caches g ~out ~added ~removed in
  let ids, id_inv = Option.value ids ~default:(g.ids, g.id_inv) in
  { g with
    out;
    values;
    n_edges = g.n_edges + List.length added - List.length removed;
    idref_label_ids = Option.value idref_label_ids ~default:g.idref_label_ids;
    ids;
    id_inv;
    in_adj;
    by_label
  }

module Builder = struct
  type t = {
    b_labels : Label.table;
    b_base : nid;
        (* the first nid handed out: [append_subtree]'s builder extends a
           graph of [b_base] nodes, every other one starts empty *)
    b_values : string option Vec.t;
    b_out : int list ref Vec.t;  (* the new nodes' rows, newest entry first *)
    mutable b_grafts : (nid * int) list;
        (* edges leaving nodes below [b_base], newest first *)
    mutable b_ids : (nid * string) SMap.t * string list IMap.t;
    mutable b_idrefs : Label.t list option;
        (* an encoded document's IDREF labels; [None] for a hand-built
           graph, whose [build] guesses them and checks the forest
           property *)
  }

  let make ?(base = 0) ?(ids = (SMap.empty, IMap.empty)) ~idrefs labels =
    { b_labels = labels;
      b_base = base;
      b_values = Vec.create ();
      b_out = Vec.create ();
      b_grafts = [];
      b_ids = ids;
      b_idrefs = idrefs
    }

  let create () = make ~idrefs:None (Label.create_table ())

  let add_node ?value b =
    let nid = b.b_base + Vec.length b.b_values in
    Vec.push b.b_values value;
    Vec.push b.b_out (ref []);
    nid

  let push_edge b u l v =
    if u < b.b_base then b.b_grafts <- (u, pack_adj l v) :: b.b_grafts
    else begin
      let adj = Vec.get b.b_out (u - b.b_base) in
      adj := pack_adj l v :: !adj
    end

  let check b v ctx =
    if v < 0 || v >= b.b_base + Vec.length b.b_values then
      invalid_arg (Printf.sprintf "Data_graph.Builder.%s: unknown nid %d" ctx v)

  let add_edge b u label v =
    check b u "add_edge";
    check b v "add_edge";
    push_edge b u (Label.intern b.b_labels label) v

  let rows b = Array.map (fun l -> Array.of_list (List.rev !l)) (Vec.to_array b.b_out)

  let build ~root b =
    check b root "build";
    let rows = rows b in
    let g =
      { labels = b.b_labels;
        root;
        out = Parray.of_array rows;
        values = Parray.of_array (Vec.to_array b.b_values);
        n_edges = Array.fold_left (fun n row -> n + Array.length row) 0 rows;
        idref_label_ids = Option.value b.b_idrefs ~default:[];
        ids = fst b.b_ids;
        id_inv = snd b.b_ids;
        forest = true;
        in_adj = None;
        by_label = None
      }
    in
    match b.b_idrefs with
    | Some _ -> g
    | None ->
      (* Heuristic for hand-built graphs: an '@' label whose targets have
         outgoing edges is an IDREF attribute edge. *)
      let candidates = Hashtbl.create 8 in
      iter_edges g (fun _ l v ->
          if Label.is_attribute g.labels l && Array.length rows.(v) > 0 then
            Hashtbl.replace candidates l ());
      let idref_label_ids =
        List.sort Int.compare (Hashtbl.fold (fun l () acc -> l :: acc) candidates [])
      in
      let forest = check_forest g in
      { g with idref_label_ids; forest }
end

(* An IDREFS value lists ids separated by XML whitespace, the four
   characters the lexer skips. *)
let split_refs v =
  String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) v)
  |> List.filter (fun s -> not (String.equal s ""))

(* Encode [e] per Section 3 into [b]'s fresh nodes, in document order, and
   link it below [parent] when given; return its node. IDREFs resolve in a
   second pass, once the whole element is encoded, against the ids [b]
   holds (an extended graph's) plus the element's own; the labels of the
   references made join [b]'s IDREF labels. *)
let encode ~id_attrs ~idref_attrs ?parent (b : Builder.t) (e : Xml_tree.element) =
  let intern = Label.intern b.b_labels in
  (* (element nid, attr name, idref values) collected for the second pass *)
  let pending_refs : (nid * string * string list) Vec.t = Vec.create () in
  let rec walk (e : Xml_tree.element) =
    (* an element whose content is only character data is a leaf *)
    let value =
      match e.children with
      | [] -> None
      | children ->
        if List.for_all (function Xml_tree.Text _ -> true | Xml_tree.Element _ -> false) children
        then
          Some
            (String.concat ""
               (List.map (function Xml_tree.Text s -> s | Xml_tree.Element _ -> "") children))
        else None
    in
    let me = Builder.add_node ?value b in
    List.iter
      (fun (name, v) ->
        if List.mem name id_attrs then b.b_ids <- register_id b.b_ids v me e.tag
        else if List.mem name idref_attrs then Vec.push pending_refs (me, name, split_refs v)
        else begin
          let leaf = Builder.add_node ~value:v b in
          Builder.push_edge b me (intern ("@" ^ name)) leaf
        end)
      e.attrs;
    if Option.is_none value then
      List.iter
        (function
          | Xml_tree.Text _ -> ()
          | Xml_tree.Element child ->
            let c = walk child in
            Builder.push_edge b me (intern child.tag) c)
        e.children;
    me
  in
  let root = walk e in
  Option.iter (fun p -> Builder.push_edge b p (intern e.tag) root) parent;
  let idrefs = ref (Option.value b.b_idrefs ~default:[]) in
  Vec.iter
    (fun (owner, name, refs) ->
      match List.filter_map (fun r -> SMap.find_opt r (fst b.b_ids)) refs with
      | [] -> ()
      | targets ->
        let attr_node = Builder.add_node b in
        let l = intern ("@" ^ name) in
        Builder.push_edge b owner l attr_node;
        if not (List.exists (Int.equal l) !idrefs) then idrefs := l :: !idrefs;
        List.iter (fun (target, tag) -> Builder.push_edge b attr_node (intern tag) target) targets)
    pending_refs;
  b.b_idrefs <- Some (List.sort Int.compare !idrefs);
  root

let of_document ?(id_attrs = [ "id" ]) ?(idref_attrs = []) (doc : Xml_tree.document) =
  let b = Builder.make ~idrefs:(Some []) (Label.create_table ()) in
  let root = encode ~id_attrs ~idref_attrs b doc.root in
  Builder.build ~root b

let of_document_dtd dtd doc =
  of_document
    ~id_attrs:(Repro_xml.Dtd.id_attributes dtd)
    ~idref_attrs:(Repro_xml.Dtd.idref_attributes dtd)
    doc

let append_subtree ?(id_attrs = [ "id" ]) ?(idref_attrs = []) g ~parent
    (fragment : Xml_tree.element) =
  check_nid g parent "append_subtree";
  let base = n_nodes g in
  let b =
    Builder.make ~base ~ids:(g.ids, g.id_inv) ~idrefs:(Some g.idref_label_ids) g.labels
  in
  ignore (encode ~id_attrs ~idref_attrs ~parent b fragment : nid);
  (* the encoder grafts only below [parent] *)
  let grafts = Array.of_list (List.rev_map snd b.b_grafts) and rows = Builder.rows b in
  let k = Array.length rows in
  let edges u row = List.map (fun e -> (u, adj_label e, adj_node e)) (Array.to_list row) in
  let added =
    edges parent grafts
    @ List.concat (List.mapi (fun i row -> edges (base + i) row) (Array.to_list rows))
  in
  let out =
    Parray.update g.out ~length:(base + k) ~fill:[||]
      ((parent, Array.append (Parray.get g.out parent) grafts)
       :: List.init k (fun i -> (base + i, rows.(i))))
  in
  let values =
    Parray.update g.values ~length:(base + k) ~fill:None
      (List.init k (fun i -> (base + i, Vec.get b.b_values i)))
  in
  ( version g ~out ~values ~added ~removed:[] ~ids:b.b_ids
      ~idref_label_ids:(Option.value b.b_idrefs ~default:[]),
    added )

let delete_subtree g ~node =
  check_nid g node "delete_subtree";
  if node = g.root then invalid_arg "Data_graph.delete_subtree: cannot delete the root";
  let in_adj = ensure_in_adj g in
  let deleted : (nid, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.add deleted node ();
  let is_deleted v = Hashtbl.mem deleted v in
  (* tree descendants: nodes whose document-parent chain passes through
     [node]; attribute leaves and IDREF attribute nodes hang off their
     owners by tree edges too, so they come along *)
  let stack = ref [ node ] in
  while not (List.is_empty !stack) do
    match !stack with
    | [] -> ()
    | u :: tl ->
      stack := tl;
      iter_out g u (fun _ v ->
          if (not (is_deleted v)) && v <> g.root then
            match tree_in_edge_packed g v with
            | Some e when adj_node e = u ->
              Hashtbl.add deleted v ();
              stack := v :: !stack
            | Some _ | None -> ())
  done;
  (* every removed edge leaves a deleted node or enters one: its source is
     a deleted node or an in-row entry of one *)
  let sources : (nid, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v () ->
      Hashtbl.replace sources v ();
      Array.iter (fun e -> Hashtbl.replace sources (adj_node e) ()) (Parray.get in_adj v))
    deleted;
  let sources = List.sort Int.compare (Hashtbl.fold (fun u () acc -> u :: acc) sources []) in
  let removed = ref [] in
  let rows =
    List.map
      (fun u ->
        let row = Parray.get g.out u in
        Array.iter
          (fun e ->
            if is_deleted u || is_deleted (adj_node e) then
              removed := (u, adj_label e, adj_node e) :: !removed)
          row;
        ( u,
          if is_deleted u then [||]
          else Array.of_seq (Seq.filter (fun e -> not (is_deleted (adj_node e))) (Array.to_seq row))
        ))
      sources
  in
  let removed = List.rev !removed in
  let out = Parray.update g.out ~length:(n_nodes g) ~fill:[||] rows in
  let values =
    Parray.update g.values ~length:(n_nodes g) ~fill:None
      (Hashtbl.fold (fun v () acc -> (v, None) :: acc) deleted [])
  in
  let ids =
    Hashtbl.fold
      (fun v () (ids, id_inv) ->
        match IMap.find_opt v id_inv with
        | None -> (ids, id_inv)
        | Some names -> (List.fold_left (fun ids id -> SMap.remove id ids) ids names, IMap.remove v id_inv))
      deleted (g.ids, g.id_inv)
  in
  (version g ~out ~values ~added:[] ~removed ~ids, removed)

let add_ref_edge g ~owner ~attr ~target =
  check_nid g owner "add_ref_edge";
  check_nid g target "add_ref_edge";
  let target_tag =
    match tree_in_edge_packed g target with
    | Some e -> adj_label e
    | None ->
      invalid_arg "Data_graph.add_ref_edge: target has no document edge to label the reference"
  in
  let l_attr = Label.intern g.labels ("@" ^ attr) in
  (* a fresh attribute node keeps every reference edge's source younger
     than any tree parent, preserving the first-in-edge-is-tree-edge
     convention for all targets *)
  let attr_node = n_nodes g in
  let out =
    Parray.update g.out ~length:(attr_node + 1) ~fill:[||]
      [ (owner, Array.append (Parray.get g.out owner) [| pack_adj l_attr attr_node |]);
        (attr_node, [| pack_adj target_tag target |])
      ]
  in
  let values = Parray.update g.values ~length:(attr_node + 1) ~fill:None [] in
  let added = [ (owner, l_attr, attr_node); (attr_node, target_tag, target) ] in
  ( version g ~out ~values ~added ~removed:[]
      ~idref_label_ids:(List.sort_uniq Int.compare (l_attr :: g.idref_label_ids)),
    added )

let remove_ref_edge g ~owner ~attr ~target =
  check_nid g owner "remove_ref_edge";
  check_nid g target "remove_ref_edge";
  let l_attr =
    match Label.find g.labels ("@" ^ attr) with
    | Some l -> l
    | None -> invalid_arg "Data_graph.remove_ref_edge: unknown attribute"
  in
  (* find an attribute node reached from [owner] by [@attr] that holds a
     reference edge to [target] *)
  let found = ref None in
  Array.iter
    (fun e ->
      if Option.is_none !found && adj_label e = l_attr then begin
        let a = adj_node e in
        Array.iter
          (fun e' -> if Option.is_none !found && adj_node e' = target then found := Some (a, adj_label e'))
          (Parray.get g.out a)
      end)
    (Parray.get g.out owner);
  match !found with
  | None -> invalid_arg "Data_graph.remove_ref_edge: no such reference"
  | Some (attr_node, target_tag) ->
    let attr_row = remove_entries (Parray.get g.out attr_node) [ pack_adj target_tag target ] in
    let reference = (attr_node, target_tag, target) in
    let rows, removed =
      if Array.length attr_row = 0 then
        ( [ (attr_node, attr_row);
            (owner, remove_entries (Parray.get g.out owner) [ pack_adj l_attr attr_node ])
          ],
          (* in [iter_edges] order *)
          (let attr_edge = (owner, l_attr, attr_node) in
           if owner < attr_node then [ attr_edge; reference ] else [ reference; attr_edge ]) )
      else ([ (attr_node, attr_row) ], [ reference ])
    in
    let out = Parray.update g.out ~length:(n_nodes g) ~fill:[||] rows in
    (version g ~out ~values:g.values ~added:[] ~removed, removed)

(* A reader-safe copy for the serving layer: a record of its own with a
   private label table (a writer's [append_subtree] interns into the shared
   one) and both derived caches present, so reads on the copy never store
   into it. Everything else is shared: adjacency rows, values, the id maps
   and the caches' rows are never written once a version exists. The
   caches are forced on [g] itself (the writer's version), so the next
   update op carries them instead of rebuilding. *)
let snapshot g =
  let in_adj = ensure_in_adj g and by_label = ensure_by_label g in
  { g with labels = Label.copy_table g.labels; in_adj = Some in_adj; by_label = Some by_label }

let reachable_by_label_path g path =
  if List.is_empty path then invalid_arg "Data_graph.reachable_by_label_path: empty path";
  let n = n_nodes g in
  (* [active u]: [u] is reached by the labels walked so far *)
  let rec go active = function
    | [] -> assert false
    | [ last ] ->
      let edges = Vec.create () in
      for u = 0 to n - 1 do
        if active u then
          iter_out g u (fun l v -> if l = last then Vec.push edges (Edge_set.pack u v))
      done;
      Edge_set.of_packed_array (Vec.to_array edges)
    | l :: rest ->
      let next = Array.make n false in
      for u = 0 to n - 1 do
        if active u then iter_out g u (fun l' v -> if l' = l then next.(v) <- true)
      done;
      go (Array.get next) rest
  in
  go (fun _ -> true) path

let pp_stats ppf g =
  Format.fprintf ppf "nodes=%d edges=%d labels=%d(%d idref)" (n_nodes g) (n_edges g)
    (Label.count g.labels)
    (List.length g.idref_label_ids)
