module Label_path = Repro_pathexpr.Label_path
module Cost = Repro_storage.Cost
module Tr = Repro_telemetry.Trace

type slot = {
  suid : int;  (* process-unique; identifies slots across maintenance passes *)
  mutable xnode : Gapex.node option;
}

type entry = {
  label : Repro_graph.Label.t;
  mutable count : int;
  mutable is_new : bool;
  e_slot : slot;
  mutable next : hnode option;
}

and hnode = {
  hid : int;  (* process-unique; memoization key for the reverse walk *)
  entries : (Repro_graph.Label.t, entry) Hashtbl.t;
  r_slot : slot;  (* the remainder entry's xnode field *)
}

type t = { head : hnode } [@@apex.shared]

(* Process-wide id sources. Atomic so concurrent maintenance passes on
   separate indexes can never mint colliding slot/hnode ids. *)
let suid_counter = Atomic.make 0
let hid_counter = Atomic.make 0

let mk_slot () = { suid = Atomic.fetch_and_add suid_counter 1 + 1; xnode = None }

let mk_hnode () =
  {
    hid = Atomic.fetch_and_add hid_counter 1 + 1;
    entries = Hashtbl.create 8;
    r_slot = mk_slot ();
  }

let create () = { head = mk_hnode () }

let slot_get s = s.xnode
let slot_set s v = s.xnode <- v
let slot_uid s = s.suid

let mk_entry label = { label; count = 0; is_new = true; e_slot = mk_slot (); next = None }

let charge cost =
  match cost with
  | Some c -> c.Cost.hash_probes <- c.Cost.hash_probes + 1
  | None -> ()

(* Figure 9, generalized with entry creation at HashHead for update-time use
   and with path-exhaustion resolving to the deeper hnode's remainder. *)
let lookup_slot ?cost ?(create_head = false) t ~rev_path =
  let rec step hnode label rest =
    charge cost;
    match Hashtbl.find_opt hnode.entries label with
    | None ->
      if hnode != t.head then Some hnode.r_slot
      else if create_head then begin
        let e = mk_entry label in
        e.is_new <- false;
        (* not a workload discovery *)
        Hashtbl.add hnode.entries label e;
        Some e.e_slot
      end
      else None
    | Some e ->
      (match e.next with
       | None -> Some e.e_slot
       | Some sub ->
         (match rest with
          | [] -> Some sub.r_slot
          | l :: rest' -> step sub l rest'))
  in
  match rev_path with
  | [] -> invalid_arg "Hash_tree.lookup_slot: empty path"
  | last :: rest -> step t.head last rest

(* every G_APEX node in the subtree rooted at [hnode] *)
let rec collect_subtree hnode acc =
  let acc = match hnode.r_slot.xnode with Some n -> n :: acc | None -> acc in
  Hashtbl.fold
    (fun _ e acc ->
      let acc = match e.e_slot.xnode with Some n -> n :: acc | None -> acc in
      match e.next with Some sub -> collect_subtree sub acc | None -> acc)
    hnode.entries acc

type located =
  | Exact of Gapex.node list
  | Approx of Gapex.node list

let locate ?cost t ~rev_path =
  let ptok = Tr.begin_ Tr.Probe in
  let rec step hnode label rest =
    charge cost;
    match Hashtbl.find_opt hnode.entries label with
    | None ->
      if hnode == t.head then None
      else
        Some (Approx (match hnode.r_slot.xnode with Some n -> [ n ] | None -> []))
    | Some e ->
      (match e.next, rest with
       | None, [] -> Some (Exact (match e.e_slot.xnode with Some n -> [ n ] | None -> []))
       | None, _ :: _ -> Some (Approx (match e.e_slot.xnode with Some n -> [ n ] | None -> []))
       | Some sub, [] -> Some (Exact (collect_subtree sub []))
       | Some sub, l :: rest' -> step sub l rest')
  in
  match rev_path with
  | [] ->
    Tr.end_ ptok;
    invalid_arg "Hash_tree.locate: empty path"
  | last :: rest ->
    let located = step t.head last rest in
    Tr.end_arg ptok
      (match located with
       | None -> 0
       | Some (Exact nodes) | Some (Approx nodes) -> List.length nodes);
    located

(* --- extraction (Figure 8) --- *)

let rec iter_entries hnode f =
  Hashtbl.iter
    (fun _ e ->
      f e;
      match e.next with Some sub -> iter_entries sub f | None -> ())
    hnode.entries

let reset_marks t =
  iter_entries t.head (fun e ->
      e.count <- 0;
      e.is_new <- false)

(* insert one subpath (reverse navigation), creating entries/hnodes as
   needed, and bump the final entry's count *)
let count_subpath t rev_sub =
  let rec step hnode label rest =
    let e =
      match Hashtbl.find_opt hnode.entries label with
      | Some e -> e
      | None ->
        let e = mk_entry label in
        Hashtbl.add hnode.entries label e;
        e
    in
    match rest with
    | [] -> e.count <- e.count + 1
    | l :: rest' ->
      let sub =
        match e.next with
        | Some sub -> sub
        | None ->
          let sub = mk_hnode () in
          e.next <- Some sub;
          sub
      in
      step sub l rest'
  in
  match rev_sub with
  | [] -> ()
  | last :: rest -> step t.head last rest

let count_workload t queries =
  List.iter
    (fun q -> List.iter (fun sub -> count_subpath t (List.rev sub)) (Label_path.subpaths q))
    queries

(* insert the entry chain for a forward [path] without touching counts:
   lets a policy retain paths the current window never counted — the
   decide callback of [prune] is only consulted for entries that exist *)
let ensure_path t path =
  let rec step hnode label rest =
    let e =
      match Hashtbl.find_opt hnode.entries label with
      | Some e -> e
      | None ->
        let e = mk_entry label in
        Hashtbl.add hnode.entries label e;
        e
    in
    match rest with
    | [] -> ()
    | l :: rest' ->
      let sub =
        match e.next with
        | Some sub -> sub
        | None ->
          let sub = mk_hnode () in
          e.next <- Some sub;
          sub
      in
      step sub l rest'
  in
  match List.rev path with
  | [] -> ()
  | last :: rest -> step t.head last rest

let prune t ~decide =
  let rec prune_hnode hnode ~is_head suffix =
    let snapshot = Hashtbl.fold (fun _ e acc -> e :: acc) hnode.entries [] in
    List.iter
      (fun e ->
        if not (decide ~path:(e.label :: suffix) ~count:e.count ~is_new:e.is_new)
        then begin
          (* infrequent: drop its subtree; outside HashHead drop the entry
             itself, which folds its paths back into this hnode's remainder
             — so that remainder's node is stale now *)
          if Option.is_some e.next then begin
            e.next <- None;
            (* the entry now stands for everything that its subtree
               partitioned; any node it held is stale *)
            e.e_slot.xnode <- None;
            Tr.event Tr.Path_evicted e.label
          end;
          if not is_head then begin
            Hashtbl.remove hnode.entries e.label;
            Tr.event Tr.Path_evicted e.label;
            (* deleting a previously-required entry folds its paths back
               into this hnode's remainder, so its node is stale; an entry
               that was only just created by counting never had a node and
               leaves the remainder untouched *)
            if not e.is_new then hnode.r_slot.xnode <- None
          end
        end
        else begin
          (match e.next with
           | Some sub ->
             if prune_hnode sub ~is_head:false (e.label :: suffix) then begin
               e.next <- None
               (* e.e_slot is already empty by the invariant *)
             end
           | None -> ());
          (* a path that was maximal but now has longer frequent suffixes:
             its node must be rebuilt as a remainder (lines 12-13) *)
          if Option.is_some e.next && Option.is_some e.e_slot.xnode then e.e_slot.xnode <- None;
          (* a new frequent sibling changes what "remainder" means
             (lines 14-15) *)
          if e.is_new && Option.is_some hnode.r_slot.xnode then hnode.r_slot.xnode <- None
        end)
      snapshot;
    Hashtbl.length hnode.entries = 0
  in
  ignore (prune_hnode t.head ~is_head:true [])

(* --- introspection --- *)

let iter_slots t f =
  let rec walk hnode suffix =
    if not (List.is_empty suffix) then f suffix hnode.r_slot true;
    Hashtbl.iter
      (fun _ e ->
        let s = e.label :: suffix in
        f s e.e_slot false;
        match e.next with Some sub -> walk sub s | None -> ())
      hnode.entries
  in
  walk t.head []

let n_entries t =
  let n = ref 0 in
  iter_entries t.head (fun _ -> incr n);
  !n

(* --- persistence ---
   hnode   := [n_entries] entry* [remainder_idx+1]
   entry   := [label] [count] [is_new] [xnode_idx+1] [has_sub] sub?   *)

let encode t ~node_index =
  let out = ref [] in
  let push i = out := i :: !out in
  let slot_code s = match s.xnode with Some n -> node_index n + 1 | None -> 0 in
  let rec enc_hnode h =
    push (Hashtbl.length h.entries);
    let entries =
      Hashtbl.fold (fun _ e acc -> e :: acc) h.entries []
      |> List.sort (fun a b -> Int.compare a.label b.label)
    in
    List.iter
      (fun e ->
        push e.label;
        push e.count;
        push (if e.is_new then 1 else 0);
        push (slot_code e.e_slot);
        match e.next with
        | Some sub ->
          push 1;
          enc_hnode sub
        | None -> push 0)
      entries;
    push (slot_code h.r_slot)
  in
  enc_hnode t.head;
  List.rev !out

let decode ~node_of arr ~pos =
  let next () =
    if !pos >= Array.length arr then invalid_arg "Hash_tree.decode: truncated image"
    else begin
      let v = arr.(!pos) in
      incr pos;
      v
    end
  in
  let slot_of code =
    let s = mk_slot () in
    s.xnode <- (if code = 0 then None else Some (node_of (code - 1)));
    s
  in
  let rec dec_hnode () =
    let n = next () in
    let h = mk_hnode () in
    for _ = 1 to n do
      let label = next () in
      let count = next () in
      let is_new = next () = 1 in
      let slot = slot_of (next ()) in
      let has_sub = next () = 1 in
      let sub = if has_sub then Some (dec_hnode ()) else None in
      Hashtbl.add h.entries label { label; count; is_new; e_slot = slot; next = sub }
    done;
    (* remainder slot: mk_hnode made a fresh one; replace its contents *)
    let r = slot_of (next ()) in
    h.r_slot.xnode <- r.xnode;
    h
  in
  { head = dec_hnode () }

(* Fresh hnodes, entries and slots (new uids), the same labels, counts and
   flags, slots pointing at [node_of]'s nodes; entries are added in label
   order, as [decode] adds them. *)
let copy t ~node_of =
  let copy_slot s = { (mk_slot ()) with xnode = Option.map node_of s.xnode } in
  let rec copy_hnode h =
    let h' = mk_hnode () in
    h'.r_slot.xnode <- Option.map node_of h.r_slot.xnode;
    Hashtbl.fold (fun _ e acc -> e :: acc) h.entries []
    |> List.sort (fun a b -> Int.compare a.label b.label)
    |> List.iter (fun e ->
           Hashtbl.add h'.entries e.label
             { label = e.label;
               count = e.count;
               is_new = e.is_new;
               e_slot = copy_slot e.e_slot;
               next = Option.map copy_hnode e.next
             });
    h'
  in
  { head = copy_hnode t.head }

let check_invariant t =
  let ok = ref true in
  iter_entries t.head (fun e -> if Option.is_some e.next && Option.is_some e.e_slot.xnode then ok := false);
  !ok

let depth t =
  let rec go hnode =
    1
    + Hashtbl.fold
        (fun _ e acc -> match e.next with Some sub -> Int.max acc (go sub) | None -> acc)
        hnode.entries 0
  in
  go t.head

(* --- reverse slot resolution (incremental maintenance) ---

   [find_slots] enumerates every slot a data edge (u, l, v) is assigned to:
   one per distinct resolution of [lookup_slot] over [l ::] each reverse
   root-anchored label path reaching [u]. The walk descends one hnode level
   per consumed label, so recursion is bounded by the tree depth and the
   (hnode, data-node) states memoize across edges of one maintenance pass.

   Because the required set is closed under subpaths (a subpath's workload
   count is at least its superpath's, so pruning with one threshold keeps
   closure), all paths reaching a given slot extend to the same resolutions
   — which is what makes patching extents per-edge equivalent to the
   traversal's path-at-a-time assignment. *)

type finder = {
  f_tree : t;
  f_in_edges : int -> (Repro_graph.Label.t * int) list;
  f_is_root : int -> bool;
  f_memo : (int * int, slot list) Hashtbl.t;  (* (hid, data node) -> resolutions *)
}

let finder t ~in_edges ~is_root =
  { f_tree = t; f_in_edges = in_edges; f_is_root = is_root; f_memo = Hashtbl.create 256 }

let find_slots f ~label ~source =
  (* [step hnode l x]: resolutions of looking [l] up in [hnode] where [x]
     (the source of the l-edge) supplies any further labels; [consume sub x]:
     resolutions of feeding x's reverse in-paths into [sub]. Mirrors
     [lookup_slot] case by case, including HashHead entry creation. *)
  let rec step hnode l x =
    match Hashtbl.find_opt hnode.entries l with
    | None ->
      if hnode != f.f_tree.head then [ hnode.r_slot ]
      else begin
        (* length-1 paths are always required: create, as the update
           traversal's [create_head] does *)
        let e = mk_entry l in
        e.is_new <- false;
        Hashtbl.add hnode.entries l e;
        [ e.e_slot ]
      end
    | Some e ->
      (match e.next with
       | None -> [ e.e_slot ]
       | Some sub -> consume sub x)
  and consume sub x =
    match Hashtbl.find_opt f.f_memo (sub.hid, x) with
    | Some slots -> slots
    | None ->
      let acc = ref [] in
      (* a path starting at [x]: the reverse path is exhausted here and
         [lookup_slot] resolves to the deeper hnode's remainder *)
      if f.f_is_root x then acc := [ sub.r_slot ];
      List.iter (fun (l', w) -> acc := step sub l' w @ !acc) (f.f_in_edges x);
      let slots =
        List.sort_uniq (fun a b -> Int.compare a.suid b.suid) !acc
      in
      Hashtbl.add f.f_memo (sub.hid, x) slots;
      slots
  in
  List.sort_uniq (fun a b -> Int.compare a.suid b.suid) (step f.f_tree.head label source)

(* [find_assignments] refines [find_slots] into (parent, child) pairs: for
   each reverse root-anchored path [p] of [source], the resolution of [p]
   (the summary node the traversal stands on when it reaches [source]) and
   of [label :: p] (the child it assigns the edge to). G_APEX holds one
   child per (node, label), so re-linking after an extent patch must attach
   each added assignment to exactly its matching parents — under subpath
   closure the child is a function of the parent, but distinct parents of
   one edge can map to distinct children, and a cross product would
   overwrite correct edges. Both walks consume the same label stream, so
   they run in lockstep as a product automaton. *)

type walk = W_done of slot | W_at of hnode

let walk_key = function W_done s -> 2 * s.suid | W_at h -> (2 * h.hid) + 1

(* one [lookup_slot] case on an in-progress walk; mirrors [step] above *)
let advance f w l =
  match w with
  | W_done _ -> w
  | W_at h ->
    (match Hashtbl.find_opt h.entries l with
     | None ->
       if h != f.f_tree.head then W_done h.r_slot
       else begin
         let e = mk_entry l in
         e.is_new <- false;
         Hashtbl.add h.entries l e;
         W_done e.e_slot
       end
     | Some e -> (match e.next with None -> W_done e.e_slot | Some sub -> W_at sub))

let find_assignments f ~label ~source =
  let memo : (int * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let emitted : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  let emit parent child =
    let pk = match parent with None -> 0 | Some s -> s.suid + 1 in
    if not (Hashtbl.mem emitted (pk, child.suid)) then begin
      Hashtbl.add emitted (pk, child.suid) ();
      out := (parent, child) :: !out
    end
  in
  let resolve_child = function W_done s -> s | W_at h -> h.r_slot in
  let resolve_parent = function
    | W_done s -> Some s
    | W_at h ->
      (* still at HashHead: no label consumed, so the path is empty and the
         parent is the summary root *)
      if h == f.f_tree.head then None else Some h.r_slot
  in
  let rec go x c p =
    match (c, p) with
    | W_done sc, W_done sp ->
      (* both fixed; [x] being root-reachable guarantees an anchor exists *)
      emit (Some sp) sc
    | _ ->
      if f.f_is_root x then emit (resolve_parent p) (resolve_child c);
      let key = (walk_key c, walk_key p, x) in
      if not (Hashtbl.mem memo key) then begin
        Hashtbl.add memo key ();
        List.iter (fun (l', w) -> go w (advance f c l') (advance f p l')) (f.f_in_edges x)
      end
  in
  go source (advance f (W_at f.f_tree.head) label) (W_at f.f_tree.head);
  !out
