module T = Repro_xml.Xml_tree

let tree_in_edge g v =
  match Data_graph.tree_parent g v with
  | -1 -> None
  | u -> Some (Data_graph.tree_label g v, u)

let is_tree_child g ~parent ~label v =
  match tree_in_edge g v with
  | Some (l, u) -> l = label && u = parent
  | None -> false

let id_or_placeholder g v =
  match Data_graph.id_of g v with
  | Some id -> id
  | None -> Printf.sprintf "#%d" v

let rec build g nid ~tag =
  let labels = Data_graph.labels g in
  let attrs = ref [] in
  let children = ref [] in
  Data_graph.iter_out g nid (fun l v ->
      let name = Label.to_string labels l in
      if Label.is_attribute labels l then begin
        let attr_name = String.sub name 1 (String.length name - 1) in
        if Data_graph.out_degree g v = 0 then
          (* plain attribute: value leaf *)
          attrs := (attr_name, Option.value ~default:"" (Data_graph.value g v)) :: !attrs
        else begin
          (* IDREF attribute node: collect the target ids *)
          let targets = ref [] in
          Data_graph.iter_out g v (fun _ target -> targets := target :: !targets);
          let rendered = List.rev_map (id_or_placeholder g) !targets in
          attrs := (attr_name, String.concat " " rendered) :: !attrs
        end
      end
      else if is_tree_child g ~parent:nid ~label:l v then
        children := T.Element (build g v ~tag:name) :: !children);
  let attrs =
    match Data_graph.id_of g nid with
    | Some id -> ("id", id) :: List.rev !attrs
    | None -> List.rev !attrs
  in
  let children =
    match Data_graph.value g nid with
    | Some v -> [ T.Text v ]
    | None -> List.rev !children
  in
  { T.tag; attrs; children }

let element ?tag g nid =
  let tag =
    match tag with
    | Some t -> t
    | None ->
      (match tree_in_edge g nid with
       | Some (l, _) -> Label.to_string (Data_graph.labels g) l
       | None -> "root")
  in
  build g nid ~tag

let to_xml_string ?tag g nid =
  Repro_xml.Xml_print.to_string ~decl:false { T.decl = []; root = element ?tag g nid }
