module Vec = Repro_util.Vec

type nid = int

(* Outgoing/incoming adjacency entries pack (label, other-node) into one int:
   labels fit 30 bits, nids fit 31 bits. *)
let pack_adj label node = (label lsl 32) lor node
let adj_label e = e lsr 32
let adj_node e = e land ((1 lsl 32) - 1)

type t = {
  labels : Label.table;
  root : nid;
  out : int array array;
  values : string option array;
  n_edges : int;
  idref_label_ids : Label.t list;
  ids : (string, int * string) Hashtbl.t;
      (* XML id -> (nid, tag); retained so fragments appended later can
         reference existing elements *)
  mutable id_inv : (int, string) Hashtbl.t option;  (* nid -> id, lazy *)
  forest : bool;
      (* a document forest (see the mli): set by [of_document], inherited
         by the update ops, checked by [Builder.build] *)
  mutable in_adj : int array array option;
  mutable by_label : (Label.t, Edge_set.t) Hashtbl.t option;
}

let labels g = g.labels
let root g = g.root
let is_forest g = g.forest
let n_nodes g = Array.length g.out
let n_edges g = g.n_edges

let check_nid g v ctx =
  if v < 0 || v >= n_nodes g then
    invalid_arg (Printf.sprintf "Data_graph.%s: unknown nid %d" ctx v)

let value g v =
  check_nid g v "value";
  g.values.(v)

let out_degree g v =
  check_nid g v "out_degree";
  Array.length g.out.(v)

let iter_out g v f =
  check_nid g v "iter_out";
  Array.iter (fun e -> f (adj_label e) (adj_node e)) g.out.(v)

let fold_out g v f acc =
  check_nid g v "fold_out";
  Array.fold_left (fun acc e -> f acc (adj_label e) (adj_node e)) acc g.out.(v)

let iter_edges g f =
  Array.iteri (fun u adj -> Array.iter (fun e -> f u (adj_label e) (adj_node e)) adj) g.out

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
    g.in_adj <- Some a;
    a

let iter_in g v f =
  check_nid g v "iter_in";
  let a = ensure_in_adj g in
  Array.iter (fun e -> f (adj_label e) (adj_node e)) a.(v)

(* A node's tree (document) edge is its first incoming edge — reference
   edges always come from attribute nodes created after the referencing
   element, so they sort later in the reverse adjacency (see Subtree). *)
let tree_in_edge_packed g v =
  let a = ensure_in_adj g in
  if Array.length a.(v) = 0 then None else Some a.(v).(0)

let tree_label g v =
  check_nid g v "tree_label";
  let row = (ensure_in_adj g).(v) in
  if Array.length row = 0 then -1 else adj_label row.(0)

let tree_parent g v =
  check_nid g v "tree_parent";
  let row = (ensure_in_adj g).(v) in
  if Array.length row = 0 then -1 else adj_node row.(0)

(* The document-forest test of the mli, in one pass over the reverse
   adjacency: one label per node, every later in-edge from an attribute
   node, and every upward walk through non-attribute tree edges ending
   (walks are marked on the way up, so each node is settled once). *)
let check_forest g =
  let a = ensure_in_adj g in
  let stops u = Array.length a.(u) = 0 || Label.is_attribute g.labels (adj_label a.(u).(0)) in
  let attribute_node u = Array.length a.(u) > 0 && stops u in
  let local_ok v =
    let row = a.(v) in
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
      if stops u then Some (u :: path) else walk (adj_node a.(u).(0)) (u :: path)
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
  let inv =
    match g.id_inv with
    | Some inv when Hashtbl.length inv = Hashtbl.length g.ids -> inv
    | Some _ | None ->
      let inv = Hashtbl.create (Hashtbl.length g.ids) in
      Hashtbl.iter (fun id (v, _) -> Hashtbl.replace inv v id) g.ids;
      g.id_inv <- Some inv;
      inv
  in
  Hashtbl.find_opt inv nid

let root_edge g = Edge_set.of_list [ (Edge_set.null, g.root) ]

let ensure_by_label g =
  match g.by_label with
  | Some tbl -> tbl
  | None ->
    let groups : (Label.t, int Vec.t) Hashtbl.t = Hashtbl.create 64 in
    iter_edges g (fun u l v ->
        let vec =
          match Hashtbl.find_opt groups l with
          | Some vec -> vec
          | None ->
            let vec = Vec.create () in
            Hashtbl.add groups l vec;
            vec
        in
        Vec.push vec (Edge_set.pack u v));
    let tbl = Hashtbl.create (Hashtbl.length groups) in
    Hashtbl.iter (fun l vec -> Hashtbl.add tbl l (Edge_set.of_packed_array (Vec.to_array vec))) groups;
    g.by_label <- Some tbl;
    tbl

let edges_with_label g l =
  match Hashtbl.find_opt (ensure_by_label g) l with
  | Some set -> set
  | None -> Edge_set.empty

module Builder = struct
  type t = {
    b_labels : Label.table;
    b_values : string option Vec.t;
    b_out : int list ref Vec.t;
    mutable b_edges : int;
  }

  let create () =
    { b_labels = Label.create_table (); b_values = Vec.create (); b_out = Vec.create (); b_edges = 0 }

  let add_node ?value b =
    let nid = Vec.length b.b_values in
    Vec.push b.b_values value;
    Vec.push b.b_out (ref []);
    nid

  let check b v ctx =
    if v < 0 || v >= Vec.length b.b_values then
      invalid_arg (Printf.sprintf "Data_graph.Builder.%s: unknown nid %d" ctx v)

  let add_edge b u label v =
    check b u "add_edge";
    check b v "add_edge";
    let l = Label.intern b.b_labels label in
    let adj = Vec.get b.b_out u in
    adj := pack_adj l v :: !adj;
    b.b_edges <- b.b_edges + 1

  let freeze ?idref_label_ids ?forest ~root b =
    check b root "build";
    let out = Array.map (fun l -> Array.of_list (List.rev !l)) (Vec.to_array b.b_out) in
    let g =
      { labels = b.b_labels;
        root;
        out;
        values = Vec.to_array b.b_values;
        n_edges = b.b_edges;
        idref_label_ids = [];
        ids = Hashtbl.create 4;
        id_inv = None;
        forest = false;
        in_adj = None;
        by_label = None
      }
    in
    let idrefs =
      match idref_label_ids with
      | Some ids -> ids
      | None ->
        (* Heuristic for hand-built graphs: an '@' label whose targets have
           outgoing edges is an IDREF attribute edge. *)
        let candidates = Hashtbl.create 8 in
        iter_edges g (fun _ l v ->
            if Label.is_attribute g.labels l && Array.length out.(v) > 0 then
              Hashtbl.replace candidates l ());
        List.sort Int.compare (Hashtbl.fold (fun l () acc -> l :: acc) candidates [])
    in
    let forest = match forest with Some f -> f | None -> check_forest g in
    { g with idref_label_ids = idrefs; forest }

  let build ~root b = freeze ~root b
end

let of_document ?(id_attrs = [ "id" ]) ?(idref_attrs = []) (doc : Repro_xml.Xml_tree.document) =
  let b = Builder.create () in
  let ids : (string, nid * string) Hashtbl.t = Hashtbl.create 256 in
  (* (element nid, attr name, idref values) collected for the second pass *)
  let pending_refs : (nid * string * string list) Vec.t = Vec.create () in
  let is_id name = List.mem name id_attrs in
  let is_idref name = List.mem name idref_attrs in
  let split_refs v =
    String.split_on_char ' ' v |> List.concat_map (String.split_on_char '\n')
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> String.length s > 0)
  in
  let rec walk (e : Repro_xml.Xml_tree.element) =
    let only_text =
      not (List.is_empty e.children) && List.for_all (function Repro_xml.Xml_tree.Text _ -> true | _ -> false) e.children
    in
    let value =
      if only_text then
        Some
          (String.concat ""
             (List.map (function Repro_xml.Xml_tree.Text s -> s | Repro_xml.Xml_tree.Element _ -> "") e.children))
      else None
    in
    let me = Builder.add_node ?value b in
    List.iter
      (fun (name, v) ->
        if is_id name then
          (if not (Hashtbl.mem ids v) then Hashtbl.add ids v (me, e.tag))
        else if is_idref name then Vec.push pending_refs (me, name, split_refs v)
        else begin
          let leaf = Builder.add_node ~value:v b in
          Builder.add_edge b me ("@" ^ name) leaf
        end)
      e.attrs;
    if not only_text then
      List.iter
        (function
          | Repro_xml.Xml_tree.Text _ -> ()
          | Repro_xml.Xml_tree.Element child ->
            let c = walk child in
            Builder.add_edge b me child.tag c)
        e.children;
    me
  in
  let root = walk doc.root in
  let idref_label_names = Hashtbl.create 8 in
  Vec.iter
    (fun (owner, name, refs) ->
      let targets =
        List.filter_map
          (fun r ->
            match Hashtbl.find_opt ids r with
            | Some (target, tag) -> Some (target, tag)
            | None -> None)
          refs
      in
      match targets with
      | [] -> ()
      | targets ->
        let attr_node = Builder.add_node b in
        Builder.add_edge b owner ("@" ^ name) attr_node;
        Hashtbl.replace idref_label_names ("@" ^ name) ();
        List.iter (fun (target, tag) -> Builder.add_edge b attr_node tag target) targets)
    pending_refs;
  let idref_label_ids =
    Hashtbl.fold
      (fun name () acc ->
        match Label.find b.Builder.b_labels name with
        | Some id -> id :: acc
        | None -> acc)
      idref_label_names []
    |> List.sort Int.compare
  in
  let g = Builder.freeze ~idref_label_ids ~forest:true ~root b in
  Hashtbl.iter (fun id target -> Hashtbl.replace g.ids id target) ids;
  g

let of_document_dtd dtd doc =
  of_document
    ~id_attrs:(Repro_xml.Dtd.id_attributes dtd)
    ~idref_attrs:(Repro_xml.Dtd.idref_attributes dtd)
    doc

let append_subtree ?(id_attrs = [ "id" ]) ?(idref_attrs = [ ]) g ~parent
    (fragment : Repro_xml.Xml_tree.element) =
  check_nid g parent "append_subtree";
  let base = n_nodes g in
  let new_values : string option Vec.t = Vec.create () in
  let new_out : int list ref Vec.t = Vec.create () in
  let new_edges = ref 0 in
  let fresh ?value () =
    let nid = base + Vec.length new_values in
    Vec.push new_values value;
    Vec.push new_out (ref []);
    nid
  in
  let parent_extra = ref [] in
  let add_edge u label v =
    let l = Label.intern g.labels label in
    if u = parent then parent_extra := pack_adj l v :: !parent_extra
    else begin
      let adj = Vec.get new_out (u - base) in
      adj := pack_adj l v :: !adj
    end;
    incr new_edges
  in
  let ids = Hashtbl.copy g.ids in
  let pending_refs : (nid * string * string list) Vec.t = Vec.create () in
  let is_id name = List.mem name id_attrs in
  let is_idref name = List.mem name idref_attrs in
  let split_refs v =
    String.split_on_char ' ' v
    |> List.concat_map (String.split_on_char '\n')
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> String.length s > 0)
  in
  let rec walk (e : Repro_xml.Xml_tree.element) =
    let only_text =
      not (List.is_empty e.children)
      && List.for_all (function Repro_xml.Xml_tree.Text _ -> true | _ -> false) e.children
    in
    let value =
      if only_text then
        Some
          (String.concat ""
             (List.map
                (function Repro_xml.Xml_tree.Text s -> s | Repro_xml.Xml_tree.Element _ -> "")
                e.children))
      else None
    in
    let me = fresh ?value () in
    List.iter
      (fun (name, v) ->
        if is_id name then begin
          if not (Hashtbl.mem ids v) then Hashtbl.add ids v (me, e.tag)
        end
        else if is_idref name then Vec.push pending_refs (me, name, split_refs v)
        else begin
          let leaf = fresh ~value:v () in
          add_edge me ("@" ^ name) leaf
        end)
      e.attrs;
    if not only_text then
      List.iter
        (function
          | Repro_xml.Xml_tree.Text _ -> ()
          | Repro_xml.Xml_tree.Element child ->
            let c = walk child in
            add_edge me child.tag c)
        e.children;
    me
  in
  let fragment_root = walk fragment in
  add_edge parent fragment.tag fragment_root;
  let idref_label_names = Hashtbl.create 4 in
  Vec.iter
    (fun (owner, name, refs) ->
      let targets = List.filter_map (fun r -> Hashtbl.find_opt ids r) refs in
      match targets with
      | [] -> ()
      | targets ->
        let attr_node = fresh () in
        add_edge owner ("@" ^ name) attr_node;
        Hashtbl.replace idref_label_names ("@" ^ name) ();
        List.iter (fun (target, tag) -> add_edge attr_node tag target) targets)
    pending_refs;
  let k = Vec.length new_values in
  let out =
    Array.init (base + k) (fun i ->
        if i = parent then Array.append g.out.(i) (Array.of_list (List.rev !parent_extra))
        else if i < base then g.out.(i)
        else Array.of_list (List.rev !(Vec.get new_out (i - base))))
  in
  let values =
    Array.init (base + k) (fun i ->
        if i < base then g.values.(i) else Vec.get new_values (i - base))
  in
  let idref_label_ids =
    Hashtbl.fold
      (fun name () acc ->
        match Label.find g.labels name with Some id -> id :: acc | None -> acc)
      idref_label_names g.idref_label_ids
    |> List.sort_uniq Int.compare
  in
  { labels = g.labels;
    root = g.root;
    out;
    values;
    n_edges = g.n_edges + !new_edges;
    idref_label_ids;
    ids;
    id_inv = None;
    forest = g.forest;
    in_adj = None;
    by_label = None
  }

let delete_subtree g ~node =
  check_nid g node "delete_subtree";
  if node = g.root then invalid_arg "Data_graph.delete_subtree: cannot delete the root";
  ignore (ensure_in_adj g : int array array);
  let n = n_nodes g in
  let deleted = Array.make n false in
  deleted.(node) <- true;
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
          if (not deleted.(v)) && v <> g.root then
            match tree_in_edge_packed g v with
            | Some e when adj_node e = u ->
              deleted.(v) <- true;
              stack := v :: !stack
            | Some _ | None -> ())
  done;
  let removed = ref [] in
  let n_removed = ref 0 in
  iter_edges g (fun u l v ->
      if deleted.(u) || deleted.(v) then begin
        removed := (u, l, v) :: !removed;
        incr n_removed
      end);
  let out =
    Array.mapi
      (fun u adj ->
        if deleted.(u) then [||]
        else if Array.exists (fun e -> deleted.(adj_node e)) adj then
          Array.of_seq (Seq.filter (fun e -> not deleted.(adj_node e)) (Array.to_seq adj))
        else adj)
      g.out
  in
  let values = Array.mapi (fun v value -> if deleted.(v) then None else value) g.values in
  let ids = Hashtbl.create (Hashtbl.length g.ids) in
  Hashtbl.iter (fun id (v, tag) -> if not deleted.(v) then Hashtbl.add ids id (v, tag)) g.ids;
  let g' =
    { labels = g.labels;
      root = g.root;
      out;
      values;
      n_edges = g.n_edges - !n_removed;
      idref_label_ids = g.idref_label_ids;
      ids;
      id_inv = None;
      forest = g.forest;
      in_adj = None;
      by_label = None
    }
  in
  (g', List.rev !removed)

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
    Array.init (attr_node + 1) (fun u ->
        if u = owner then Array.append g.out.(u) [| pack_adj l_attr attr_node |]
        else if u = attr_node then [| pack_adj target_tag target |]
        else g.out.(u))
  in
  let values = Array.init (attr_node + 1) (fun v -> if v = attr_node then None else g.values.(v)) in
  let g' =
    { labels = g.labels;
      root = g.root;
      out;
      values;
      n_edges = g.n_edges + 2;
      idref_label_ids = List.sort_uniq Int.compare (l_attr :: g.idref_label_ids);
      ids = g.ids;
      id_inv = None;
      forest = g.forest;
      in_adj = None;
      by_label = None
    }
  in
  (g', [ (owner, l_attr, attr_node); (attr_node, target_tag, target) ])

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
          g.out.(a)
      end)
    g.out.(owner);
  match !found with
  | None -> invalid_arg "Data_graph.remove_ref_edge: no such reference"
  | Some (attr_node, target_tag) ->
    let remove_first arr e =
      let idx = ref (-1) in
      Array.iteri (fun i x -> if !idx < 0 && Int.equal x e then idx := i) arr;
      if !idx < 0 then arr
      else Array.init (Array.length arr - 1) (fun i -> if i < !idx then arr.(i) else arr.(i + 1))
    in
    let attr_out = remove_first g.out.(attr_node) (pack_adj target_tag target) in
    let orphaned = Array.length attr_out = 0 in
    let removed = ref [ (attr_node, target_tag, target) ] in
    let out =
      Array.mapi
        (fun u adj ->
          if u = attr_node then attr_out
          else if u = owner && orphaned then begin
            removed := (owner, l_attr, attr_node) :: !removed;
            remove_first adj (pack_adj l_attr attr_node)
          end
          else adj)
        g.out
    in
    let n_removed = if orphaned then 2 else 1 in
    let g' =
      { labels = g.labels;
        root = g.root;
        out;
        values = g.values;
        n_edges = g.n_edges - n_removed;
        idref_label_ids = g.idref_label_ids;
        ids = g.ids;
        id_inv = None;
        forest = g.forest;
        in_adj = None;
        by_label = None
      }
    in
    (g', List.rev !removed)

(* A reader-safe copy for the serving layer. Adjacency rows, values and the
   edge count are shared — they are never mutated in place (updates build
   new arrays) — but everything a concurrent writer can grow or a reader
   can lazily force is privatized: the label table (a writer's
   [append_subtree] interns into the shared one), the id table, and the
   three lazy caches, which are forced eagerly here so reads on the copy
   never store into it. *)
let snapshot g =
  let g' =
    { g with
      labels = Label.copy_table g.labels;
      ids = Hashtbl.copy g.ids;
      id_inv = None;
      in_adj = None;
      by_label = None
    }
  in
  ignore (ensure_in_adj g' : int array array);
  ignore (ensure_by_label g' : (Label.t, Edge_set.t) Hashtbl.t);
  let inv = Hashtbl.create (Hashtbl.length g'.ids) in
  Hashtbl.iter (fun id (v, _) -> Hashtbl.replace inv v id) g'.ids;
  g'.id_inv <- Some inv;
  g'

let reachable_by_label_path g path =
  match path with
  | [] -> invalid_arg "Data_graph.reachable_by_label_path: empty path"
  | path ->
    let n = n_nodes g in
    let rec go (current : bool array option) = function
      | [] -> assert false
      | [ last ] ->
        let edges = Vec.create () in
        let consider u =
          iter_out g u (fun l v -> if l = last then Vec.push edges (Edge_set.pack u v))
        in
        (match current with
         | None ->
           for u = 0 to n - 1 do
             consider u
           done
         | Some cur ->
           for u = 0 to n - 1 do
             if cur.(u) then consider u
           done);
        Edge_set.of_packed_array (Vec.to_array edges)
      | l :: rest ->
        let next = Array.make n false in
        let consider u = iter_out g u (fun l' v -> if l' = l then next.(v) <- true) in
        (match current with
         | None ->
           for u = 0 to n - 1 do
             consider u
           done
         | Some cur ->
           for u = 0 to n - 1 do
             if cur.(u) then consider u
           done);
        go (Some next) rest
    in
    go None path

let pp_stats ppf g =
  Format.fprintf ppf "nodes=%d edges=%d labels=%d(%d idref)" (n_nodes g) (n_edges g)
    (Label.count g.labels)
    (List.length g.idref_label_ids)
