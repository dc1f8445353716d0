type node = {
  id : int;
  mutable edge : string;  (* compressed label from parent *)
  children : (char, node) Hashtbl.t;
  mutable payloads : int list;  (* payloads for the key ending here *)
  mutable has_key : bool;
}

type t = {
  root : node;
  mutable keys : int;
  mutable nodes : int;
}

let mk_node t edge =
  let id = match t with Some t -> t.nodes | None -> 0 in
  { id; edge; children = Hashtbl.create 2; payloads = []; has_key = false }

let create () =
  { root = { id = 0; edge = ""; children = Hashtbl.create 2; payloads = []; has_key = false };
    keys = 0;
    nodes = 1
  }

let common_prefix_len a a_off b b_off =
  let n = min (String.length a - a_off) (String.length b - b_off) in
  let rec go i = if i < n && Char.equal a.[a_off + i] b.[b_off + i] then go (i + 1) else i in
  go 0

let mark_key t node payload =
  if not node.has_key then begin
    node.has_key <- true;
    t.keys <- t.keys + 1
  end;
  node.payloads <- payload :: node.payloads

let insert t key payload =
  (* descend from the root, consuming [key] from offset [off]; split
     compressed edges as needed *)
  let rec go node off =
    if off = String.length key then mark_key t node payload
    else
      match Hashtbl.find_opt node.children key.[off] with
      | None ->
        let child = mk_node (Some t) (String.sub key off (String.length key - off)) in
        t.nodes <- t.nodes + 1;
        Hashtbl.add node.children key.[off] child;
        mark_key t child payload
      | Some child ->
        let k = common_prefix_len child.edge 0 key off in
        if k = String.length child.edge then go child (off + k)
        else begin
          (* split child.edge at k *)
          let mid = mk_node (Some t) (String.sub child.edge 0 k) in
          t.nodes <- t.nodes + 1;
          Hashtbl.replace node.children key.[off] mid;
          let rest = String.sub child.edge k (String.length child.edge - k) in
          child.edge <- rest;
          Hashtbl.add mid.children rest.[0] child;
          go mid (off + k)
        end
  in
  go t.root 0

let find_with_path t key =
  let rec go node off visited =
    let visited = node.id :: visited in
    if off = String.length key then
      ((if node.has_key then node.payloads else []), List.rev visited)
    else
      match Hashtbl.find_opt node.children key.[off] with
      | None -> ([], List.rev visited)
      | Some child ->
        let k = common_prefix_len child.edge 0 key off in
        if k = String.length child.edge && off + k <= String.length key then
          go child (off + k) visited
        else ([], List.rev visited)
  in
  go t.root 0 []

let find t key = fst (find_with_path t key)

let n_keys t = t.keys
let n_nodes t = t.nodes

let iter_nodes t ~enter =
  let buf = Buffer.create 64 in
  let rec go node depth =
    let len_before = Buffer.length buf in
    Buffer.add_string buf node.edge;
    enter ~id:node.id ~depth ~edge:node.edge ~key_prefix:(Buffer.contents buf) node.payloads;
    Hashtbl.iter (fun _ child -> go child (depth + 1)) node.children;
    Buffer.truncate buf len_before
  in
  go t.root 0

let scan t ~visit =
  let buf = Buffer.create 64 in
  let rec go node =
    let len_before = Buffer.length buf in
    Buffer.add_string buf node.edge;
    (match visit ~id:node.id ~key_prefix:(Buffer.contents buf) ~payloads:node.payloads with
     | `Descend -> Hashtbl.iter (fun _ child -> go child) node.children
     | `Prune -> ());
    Buffer.truncate buf len_before
  in
  go t.root
