(* Image layout (flat ints):
     [magic "APX2"] [n_nodes] [root_index]
     per node (in index order):
       [extent_len] extent-entries  [out_degree] ([label] [target_index])*
     hash-tree stream (Hash_tree.encode format)

   Extent entries are the first packed edge, then gaps: extents are
   strictly increasing, so every gap is >= 1 and far smaller than an
   absolute packed edge. *)

module Edge_set = Repro_graph.Edge_set
module Vec = Repro_util.Vec

let magic = 0x41505832 (* "APX2" *)

let push_extent out (extent : int array) =
  let n = Array.length extent in
  Vec.push out n;
  if n > 0 then begin
    Vec.push out extent.(0);
    for i = 1 to n - 1 do
      Vec.push out (extent.(i) - extent.(i - 1))
    done
  end

let to_image apex =
  let gapex = Apex.summary apex in
  let nodes = Gapex.reachable gapex in
  let index_of = Hashtbl.create (List.length nodes) in
  List.iteri (fun i (n : Gapex.node) -> Hashtbl.add index_of n.Gapex.id i) nodes;
  let node_index (n : Gapex.node) =
    match Hashtbl.find_opt index_of n.Gapex.id with
    | Some i -> i
    | None -> invalid_arg "Apex_persist.save: hash tree references an unreachable node"
  in
  let out = Vec.create ~capacity:1024 () in
  Vec.push out magic;
  Vec.push out (List.length nodes);
  Vec.push out (node_index (Gapex.xroot gapex));
  List.iter
    (fun (n : Gapex.node) ->
      let extent = (n.Gapex.extent :> int array) in
      push_extent out extent;
      let edges = Gapex.out_edges n in
      Vec.push out (List.length edges);
      List.iter
        (fun (l, y) ->
          Vec.push out l;
          Vec.push out (node_index y))
        edges)
    nodes;
  List.iter (Vec.push out) (Hash_tree.encode (Apex.tree apex) ~node_index);
  Vec.to_array out

let save apex store = Repro_storage.Extent_store.append_ints store (to_image apex)

(* Every length/count read from the image is bounded against the bytes that
   remain BEFORE allocating — a bit flip in a length field must raise
   [Invalid_argument], not attempt a multi-gigabyte allocation. *)
let of_image graph arr =
  let len_arr = Array.length arr in
  let pos = ref 0 in
  let next () =
    if !pos >= len_arr then invalid_arg "Apex_persist.load: truncated image"
    else begin
      let v = arr.(!pos) in
      incr pos;
      v
    end
  in
  if next () <> magic then invalid_arg "Apex_persist.load: bad magic";
  let n_nodes = next () in
  if n_nodes <= 0 || n_nodes > len_arr then invalid_arg "Apex_persist.load: bad node count";
  let root_index = next () in
  if root_index < 0 || root_index >= n_nodes then invalid_arg "Apex_persist.load: bad root";
  (* first pass: read extents and edge lists *)
  let extents = Array.make n_nodes Edge_set.empty in
  let edges = Array.make n_nodes [] in
  for i = 0 to n_nodes - 1 do
    let len = next () in
    (* a length-[len] extent spends exactly [len] words *)
    if len < 0 || len > len_arr - !pos then
      invalid_arg "Apex_persist.load: bad extent length";
    let packed = Array.make len 0 in
    if len > 0 then begin
      let first = next () in
      if first < 0 then invalid_arg "Apex_persist.load: bad extent entry";
      packed.(0) <- first;
      let acc = ref first in
      for k = 1 to len - 1 do
        let gap = next () in
        if gap < 1 then invalid_arg "Apex_persist.load: bad extent gap";
        acc := !acc + gap;
        if !acc < 0 then invalid_arg "Apex_persist.load: extent entry overflow";
        packed.(k) <- !acc
      done
    end;
    extents.(i) <- Edge_set.of_packed_array packed;
    let deg = next () in
    if deg < 0 || deg > (len_arr - !pos) / 2 then
      invalid_arg "Apex_persist.load: bad out-degree";
    let adj = ref [] in
    for _ = 1 to deg do
      let l = next () in
      let target = next () in
      adj := (l, target) :: !adj
    done;
    edges.(i) <- List.rev !adj
  done;
  (* materialize the node objects: the root first (Gapex.create), the rest
     via new_node, then rewire *)
  let gapex = Gapex.create ~root_extent:extents.(root_index) in
  let nodes =
    Array.init n_nodes (fun i ->
        if i = root_index then Gapex.xroot gapex
        else begin
          let n = Gapex.new_node gapex in
          n.Gapex.extent <- extents.(i);
          n
        end)
  in
  Array.iteri
    (fun i adj ->
      List.iter
        (fun (l, target) ->
          if target < 0 || target >= n_nodes then invalid_arg "Apex_persist.load: bad edge";
          Gapex.make_edge nodes.(i) l nodes.(target))
        adj)
    edges;
  let tree = Hash_tree.decode ~node_of:(fun i ->
      if i < 0 || i >= n_nodes then invalid_arg "Apex_persist.load: bad slot index"
      else nodes.(i)) arr ~pos
  in
  if !pos <> len_arr then invalid_arg "Apex_persist.load: trailing data";
  Apex.assemble ~graph ~gapex ~tree

let load graph store handle =
  of_image graph (Repro_storage.Extent_store.load_ints store handle)

module Snapshot = struct
  module ES = Repro_storage.Extent_store
  module BP = Repro_storage.Buffer_pool
  module P = Repro_storage.Pager
  module C = Repro_storage.Codec

  let super_magic = 0x41505853 (* "APXS" *)
  let slot_bytes = 64

  type t = {
    store : ES.t;
    superblock : P.pid;
    mutable epoch : int; [@apex.guarded "commit"]
        (* advanced only inside [commit]/[rollback], the single-writer
           epoch protocol the snapshot exists to implement *)
  }
  [@@apex.shared]

  (* One commit slot, 64 bytes on the superblock page:
       [magic] [epoch] [first_page] [first_off] [n_bytes] [n_ints]
       [image_crc] [slot_crc]
     [slot_crc] covers the first 56 bytes, so a torn or flipped slot is
     recognizably invalid. Slots ping-pong by epoch parity: epoch e lives at
     offset [(e land 1) * 64], so a commit never overwrites the slot it
     would fall back to. *)
  type slot = { s_epoch : int; s_handle : ES.handle; s_crc : int }

  let pager_of t = BP.pager (ES.pool t.store)

  (* The superblock must stay readable even when its page checksum is
     broken (a write fault landed on it): slot CRCs arbitrate validity, so
     fall back to the raw buffer rather than propagate [Invalid_argument]. *)
  let read_super t =
    let pager = pager_of t in
    match P.read pager t.superblock with
    | page -> page
    | exception Invalid_argument _ -> Bytes.copy (P.unsafe_borrow pager t.superblock)

  let write_slot page off ~epoch ~handle ~image_crc =
    let first_page, first_off, n_bytes, n_ints = ES.handle_fields handle in
    C.set_i64 page off super_magic;
    C.set_i64 page (off + 8) epoch;
    C.set_i64 page (off + 16) first_page;
    C.set_i64 page (off + 24) first_off;
    C.set_i64 page (off + 32) n_bytes;
    C.set_i64 page (off + 40) n_ints;
    C.set_i64 page (off + 48) image_crc;
    C.set_i64 page (off + 56) (C.crc32 ~pos:off ~len:56 page)

  let read_slot page off =
    if C.get_i64 page (off + 56) <> C.crc32 ~pos:off ~len:56 page then None
    else if C.get_i64 page off <> super_magic then None
    else begin
      let epoch = C.get_i64 page (off + 8) in
      let first_page = C.get_i64 page (off + 16) in
      let first_off = C.get_i64 page (off + 24) in
      let n_bytes = C.get_i64 page (off + 32) in
      let n_ints = C.get_i64 page (off + 40) in
      let image_crc = C.get_i64 page (off + 48) in
      if epoch <= 0 then None
      else
        match ES.handle_of_fields ~first_page ~first_off ~n_bytes ~n_ints with
        | handle -> Some { s_epoch = epoch; s_handle = handle; s_crc = image_crc }
        | exception Invalid_argument _ -> None
    end

  let valid_slots t =
    let page = read_super t in
    let slots = List.filter_map (fun i -> read_slot page (i * slot_bytes)) [ 0; 1 ] in
    List.sort (fun a b -> Int.compare b.s_epoch a.s_epoch) slots

  let create store =
    let pager = BP.pager (ES.pool store) in
    if P.page_size pager < 2 * slot_bytes then
      invalid_arg "Apex_persist.Snapshot.create: page size below 128 bytes";
    let superblock = P.alloc pager in
    { store; superblock; epoch = 0 }

  let attach store ~superblock =
    let t = { store; superblock; epoch = 0 } in
    (* resume epoch numbering past any surviving commit, so the next commit
       targets the older (or invalid) slot *)
    (match valid_slots t with s :: _ -> t.epoch <- s.s_epoch | [] -> ());
    t

  let superblock t = t.superblock
  let epoch t = t.epoch
  let store t = t.store

  let commit t apex =
    Repro_telemetry.Trace.with_span Repro_telemetry.Trace.Snapshot_commit
      (fun () ->
        let image = to_image apex in
        let image_crc = C.crc32_ints image in
        let pager = pager_of t in
        (* separator: force the store onto a page no committed image shares,
           so appending this image can never rewrite a previous image's tail
           page *)
        ignore (P.alloc pager : P.pid);
        let handle = ES.append_ints t.store image in
        let e = t.epoch + 1 in
        let page = read_super t in
        write_slot page ((e land 1) * slot_bytes) ~epoch:e ~handle ~image_crc;
        (* the commit point: the image is fully on disk before the slot that
           names it is written. A crash anywhere earlier leaves the previous
           epoch's slot as the newest valid one. *)
        BP.write (ES.pool t.store) t.superblock page;
        t.epoch <- e;
        Repro_telemetry.Trace.event Repro_telemetry.Trace.Epoch_committed e;
        e)

  let load_latest_inner t graph =
    let rec try_slots = function
      | [] -> invalid_arg "Apex_persist.Snapshot.load_latest: no valid snapshot"
      | s :: rest -> (
        match
          let image = ES.load_ints t.store s.s_handle in
          if C.crc32_ints image <> s.s_crc then
            invalid_arg "Apex_persist.Snapshot.load_latest: image checksum mismatch";
          of_image graph image
        with
        | apex ->
          (* adopt the recovered epoch: the NEXT commit then overwrites the
             other slot — the one that was corrupt or incomplete *)
          t.epoch <- s.s_epoch;
          apex
        | exception Invalid_argument _ -> try_slots rest)
    in
    try_slots (valid_slots t)

  let load_latest t graph =
    Repro_telemetry.Trace.with_span Repro_telemetry.Trace.Recovery (fun () ->
        load_latest_inner t graph)
end
