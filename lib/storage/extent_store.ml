module Edge_set = Repro_graph.Edge_set
module Int_sorted = Repro_util.Int_sorted

type codec =
  [ `Raw
  | `Block
  ]

type handle = {
  first_page : Pager.pid;
  first_off : int;
  n_bytes : int;
  n_ints : int;
  base : handle option;
      (* [Some h]: this blob is a delta — [n_removed], then the removed
         edges, then the added ones — over the extent named by [h];
         [None]: a plain full extent *)
}

(* What a cache entry holds. Under the [`Block] codec a sorted extent
   stays in its parsed-but-compressed form ([Blocks]): headers are
   materialized, payloads decode on demand through the view kernels.
   Everything else — the raw codec, delta payloads, unsorted int
   streams — is a plain decoded array ([Flat]). *)
type repr =
  | Flat of int array
  | Blocks of Extent_codec.t

(* decoded-extent LRU: an intrusive doubly-linked list threaded through a
   hash table, keyed by the handle's start position (unique per extent).
   A hit returns the cached representation without touching the buffer
   pool or the varint decoder. *)
type cache_node = {
  key : int;
  repr : repr;
  size : int;  (* logical ints, for the cache budget *)
  mutable set : Edge_set.t option;
      (* resolved, validated view, built lazily; for a delta blob this is
         the extent with the whole chain applied *)
  mutable prev : cache_node;
  mutable next : cache_node;
}

type cache = {
  tbl : (int, cache_node) Hashtbl.t;
  mutable head : cache_node option;  (* most recent; the list is circular *)
  mutable cached_ints : int;
  max_entries : int;
}

(* Guard disciplines on the shared store (see DESIGN.md "Domain-safety
   analysis"): "lru" — the decoded-extent cache, reader-path fills and
   evictions, to become per-domain or locked in the server; "append" — the
   write cursor, touched only while building/compacting a store (single
   writer); "scratch" — per-store decode space, to become per-domain;
   "stats" — monotonic counters whose races lose increments, not answers;
   "pool" — the pager/buffer-pool substrate, page reads on the query path
   go through its own fill/pin discipline. *)
type t = {
  pool : Buffer_pool.t [@apex.guarded "pool"];
  enc : codec;
  cache : cache option [@apex.guarded "lru"];
  mutable cur_page : Pager.pid; [@apex.guarded "append"]
  mutable cur_off : int; [@apex.guarded "append"]
  cur_buf : bytes [@apex.guarded "append"];
  scratch : int array [@apex.guarded "scratch"];
      (* one block's worth of decode space, reused by every view kernel
         on this store so the decode-on-gallop hot path allocates nothing
         per block *)
  mutable appended_ints : int; [@apex.guarded "stats"]
      (* lifetime logical ints appended *)
  mutable appended_bytes : int; [@apex.guarded "stats"]
      (* lifetime encoded bytes appended *)
  mutable skipped_blocks : int; [@apex.guarded "stats"]
      (* lifetime view-kernel block skips *)
  mutable decoded_blocks : int; [@apex.guarded "stats"]
      (* lifetime view-kernel block decodes *)
}
[@@apex.shared]

(* the decoded-extent LRU's bound on retained integers (~32 MB) *)
let max_cached_ints = 4_000_000

let create ?(codec = `Raw) ?(cache_entries = 1024) pool =
  let pager = Buffer_pool.pager pool in
  let pid = Pager.alloc pager in
  let cache =
    if cache_entries <= 0 then None
    else
      Some
        { tbl = Hashtbl.create (2 * cache_entries);
          head = None;
          cached_ints = 0;
          max_entries = cache_entries
        }
  in
  { pool;
    enc = codec;
    cache;
    cur_page = pid;
    cur_off = 0;
    cur_buf = Bytes.make (Pager.page_size pager) '\000';
    scratch = Array.make Extent_codec.block_edges 0;
    appended_ints = 0;
    appended_bytes = 0;
    skipped_blocks = 0;
    decoded_blocks = 0
  }

let codec t = t.enc
let pool t = t.pool

let handle_fields h =
  if Option.is_some h.base then
    invalid_arg "Extent_store.handle_fields: delta handles are not persistable";
  (h.first_page, h.first_off, h.n_bytes, h.n_ints)

let handle_of_fields ~first_page ~first_off ~n_bytes ~n_ints =
  if first_page < 0 || first_off < 0 || n_bytes < 0 || n_ints < 0 then
    invalid_arg "Extent_store.handle_of_fields: negative field";
  { first_page; first_off; n_bytes; n_ints; base = None }

let rec chain_length h = match h.base with None -> 0 | Some b -> 1 + chain_length b

(* --- LRU primitives --- *)

let lru_unlink c node =
  if node.next == node then c.head <- None
  else begin
    node.prev.next <- node.next;
    node.next.prev <- node.prev;
    (match c.head with Some h when h == node -> c.head <- Some node.next | _ -> ())
  end

let lru_push_front c node =
  (match c.head with
   | None ->
     node.prev <- node;
     node.next <- node
   | Some h ->
     node.prev <- h.prev;
     node.next <- h;
     h.prev.next <- node;
     h.prev <- node);
  c.head <- Some node

let lru_touch c node =
  match c.head with
  | Some h when h == node -> ()
  | _ ->
    lru_unlink c node;
    lru_push_front c node

let lru_evict_tail c =
  match c.head with
  | None -> ()
  | Some h ->
    let tail = h.prev in
    lru_unlink c tail;
    Hashtbl.remove c.tbl tail.key;
    c.cached_ints <- c.cached_ints - tail.size

let repr_len = function
  | Flat a -> Array.length a
  | Blocks b -> Extent_codec.n_edges b

let lru_insert c key repr =
  let size = repr_len repr in
  let rec node = { key; repr; size; set = None; prev = node; next = node } in
  Hashtbl.replace c.tbl key node;
  c.cached_ints <- c.cached_ints + size;
  lru_push_front c node;
  while Hashtbl.length c.tbl > c.max_entries || c.cached_ints > max_cached_ints do
    lru_evict_tail c
  done;
  node

(* --- encoding --- *)

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (- (v land 1))

let add_varint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let low = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

let add_zigzag_varints buf ints =
  let prev = ref 0 in
  Array.iter
    (fun v ->
      add_varint buf (zigzag (v - !prev));
      prev := v)
    ints

let encode enc ints =
  match enc with
  | `Raw ->
    let buf = Bytes.create (8 * Array.length ints) in
    Array.iteri (fun i v -> Codec.set_i64 buf (i * 8) v) ints;
    Bytes.unsafe_to_string buf
  | `Block ->
    (* Sorted non-negative data — i.e. every full extent — gets the
       block-compressed queryable form behind tag 1. Anything else
       (delta payloads [n_removed; removed...; added...], persistence
       images) falls back to a plain zigzag varint stream behind tag 0:
       those blobs are consumed whole, never galloped. *)
    let n = Array.length ints in
    if n = 0 || (ints.(0) >= 0 && Int_sorted.is_sorted_set ints) then
      "\001" ^ Extent_codec.encode ints
    else begin
      let buf = Buffer.create (1 + (n * 2)) in
      Buffer.add_char buf '\000';
      add_zigzag_varints buf ints;
      Buffer.contents buf
    end

let decode_zigzag_varints data start n_ints =
  let out = Array.make n_ints 0 in
  let pos = ref start in
  let prev = ref 0 in
  for i = 0 to n_ints - 1 do
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let byte = Char.code data.[!pos] in
      incr pos;
      v := !v lor ((byte land 0x7F) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue := false
    done;
    prev := !prev + unzigzag !v;
    out.(i) <- !prev
  done;
  out

let repr_of_blob enc data n_ints =
  match enc with
  | `Raw ->
    Flat (Array.init n_ints (fun i -> Codec.get_i64 (Bytes.unsafe_of_string data) (i * 8)))
  | `Block ->
    if String.length data = 0 then Flat [||]
    else begin
      match data.[0] with
      | '\001' ->
        let b = Extent_codec.of_encoded ~pos:1 data in
        if Extent_codec.n_edges b <> n_ints then
          invalid_arg "Extent_store: block blob edge count mismatch";
        Blocks b
      | '\000' -> Flat (decode_zigzag_varints data 1 n_ints)
      | _ -> invalid_arg "Extent_store: unknown blob tag"
    end

let repr_ints = function
  | Flat a -> a
  | Blocks b -> Extent_codec.decode_all b

(* --- page-spanning byte blobs --- *)

let flush_current t = Buffer_pool.write t.pool t.cur_page t.cur_buf

let next_page t =
  flush_current t;
  let pager = Buffer_pool.pager t.pool in
  t.cur_page <- Pager.alloc pager;
  t.cur_off <- 0;
  Bytes.fill t.cur_buf 0 (Bytes.length t.cur_buf) '\000'

(* Like [next_page], but without re-writing the tail page: every append
   ends with [flush_current], so between appends the disk already holds
   [cur_buf]. Skipping the redundant write matters under fault injection —
   a committed blob's tail page is never touched again, so a fault on a
   later append cannot corrupt earlier data. *)
let start_fresh_page t =
  let pager = Buffer_pool.pager t.pool in
  t.cur_page <- Pager.alloc pager;
  t.cur_off <- 0;
  Bytes.fill t.cur_buf 0 (Bytes.length t.cur_buf) '\000'

let append_blob t data ~n_ints =
  let pager = Buffer_pool.pager t.pool in
  let page_size = Pager.page_size pager in
  (* A blob occupies consecutive pids ([load] walks [pid; pid+1; ...]).
     Within one append, allocations are consecutive; but if another store
     allocated pages since our last write, restart on a fresh tail page. *)
  if t.cur_page <> Pager.n_pages pager - 1 then start_fresh_page t;
  if t.cur_off >= page_size then start_fresh_page t;
  let handle =
    { first_page = t.cur_page;
      first_off = t.cur_off;
      n_bytes = String.length data;
      n_ints;
      base = None
    }
  in
  t.appended_ints <- t.appended_ints + n_ints;
  t.appended_bytes <- t.appended_bytes + String.length data;
  let remaining = ref (String.length data) in
  let src = ref 0 in
  while !remaining > 0 do
    if t.cur_off >= page_size then next_page t;
    let chunk = Int.min !remaining (page_size - t.cur_off) in
    Bytes.blit_string data !src t.cur_buf t.cur_off chunk;
    t.cur_off <- t.cur_off + chunk;
    src := !src + chunk;
    remaining := !remaining - chunk
  done;
  flush_current t;
  handle

let pages_spanned t h =
  if h.n_bytes = 0 then 0
  else begin
    let page_size = Pager.page_size (Buffer_pool.pager t.pool) in
    ((h.first_off + h.n_bytes + page_size - 1) / page_size)
  end

let load_blob ?cost ?(charge_edges = true) t h =
  let page_size = Pager.page_size (Buffer_pool.pager t.pool) in
  let out = Bytes.create h.n_bytes in
  let pages = pages_spanned t h in
  let copied = ref 0 in
  for i = 0 to pages - 1 do
    let buf = Buffer_pool.get t.pool (h.first_page + i) in
    let start = if i = 0 then h.first_off else 0 in
    let chunk = Int.min (h.n_bytes - !copied) (page_size - start) in
    Bytes.blit buf start out !copied chunk;
    copied := !copied + chunk
  done;
  (match cost with
   | Some c ->
     c.Cost.extent_pages <- c.Cost.extent_pages + pages;
     c.Cost.extent_bytes <- c.Cost.extent_bytes + h.n_bytes;
     if charge_edges then c.Cost.extent_edges <- c.Cost.extent_edges + h.n_ints
   | None -> ());
  Bytes.unsafe_to_string out

(* --- public API --- *)

let append_ints t ints = append_blob t (encode t.enc ints) ~n_ints:(Array.length ints)

let append t (set : Edge_set.t) = append_ints t (set :> int array)

let append_delta t ~base ~(removed : Edge_set.t) ~(added : Edge_set.t) =
  let r = (removed :> int array) and a = (added :> int array) in
  let ints = Array.concat [ [| Array.length r |]; r; a ] in
  let h = append_blob t (encode t.enc ints) ~n_ints:(Array.length ints) in
  { h with base = Some base }

let cache_key t h =
  (h.first_page * Pager.page_size (Buffer_pool.pager t.pool)) + h.first_off

let charge_hit ?(charge_edges = true) cost h =
  match cost with
  | Some c ->
    c.Cost.extent_cache_hits <- c.Cost.extent_cache_hits + 1;
    (* the edges still stream through the caller; only page I/O is saved *)
    if charge_edges then c.Cost.extent_edges <- c.Cost.extent_edges + h.n_ints
  | None -> ()

let charge_miss cost =
  match cost with
  | Some c -> c.Cost.extent_cache_misses <- c.Cost.extent_cache_misses + 1
  | None -> ()

let load_node ?cost ?(charge_edges = true) t h =
  match t.cache with
  | None -> None
  (* an empty blob does not advance the tail, so it would share its start
     position — the cache key — with the next extent; decoding it is free
     anyway, so bypass *)
  | Some _ when h.n_bytes = 0 -> None
  | Some c ->
    let key = cache_key t h in
    (match Hashtbl.find_opt c.tbl key with
     | Some node ->
       charge_hit ~charge_edges cost h;
       lru_touch c node;
       Some node
     | None ->
       charge_miss cost;
       let repr = repr_of_blob t.enc (load_blob ?cost ~charge_edges t h) h.n_ints in
       Some (lru_insert c key repr))

(* Build (once) the validated set view of a node holding a FULL extent.
   Not meaningful for delta nodes, whose [set] is the chain-resolved
   extent and is written by [load] below. *)
let set_of_node node =
  match node.set with
  | Some s -> s
  | None ->
    let s =
      match node.repr with
      | Flat a -> Edge_set.of_packed_array a
      | Blocks b ->
        (* decode_all validates strict ascending order block by block *)
        Edge_set.unsafe_of_sorted (Extent_codec.decode_all b)
    in
    node.set <- Some s;
    s

let load_ints ?cost t h =
  match load_node ?cost t h with
  | Some node ->
    (match node.repr with
     | Flat a -> a
     | Blocks b ->
       (* deliberately NOT memoized through [set_of_node]: this entry
          point also decodes delta payloads, whose ints are raw blob
          content, not an extent — caching them as the node's resolved
          set would poison later chain resolutions *)
       Extent_codec.decode_all b)
  | None -> repr_ints (repr_of_blob t.enc (load_blob ?cost t h) h.n_ints)

(* the LRU node for [h], only if it already carries a resolved set *)
let cached_resolved t h =
  match t.cache with
  | None -> None
  | Some _ when h.n_bytes = 0 -> None
  | Some c ->
    (match Hashtbl.find_opt c.tbl (cache_key t h) with
     | Some ({ set = Some s; _ } as node) -> Some (c, node, s)
     | _ -> None)

let apply_delta base ints =
  if Array.length ints = 0 then base
  else begin
    let nr = ints.(0) in
    if nr < 0 || nr > Array.length ints - 1 then
      invalid_arg "Extent_store.load: malformed delta blob";
    let removed = Edge_set.of_packed_array (Array.sub ints 1 nr) in
    let added =
      Edge_set.of_packed_array (Array.sub ints (1 + nr) (Array.length ints - 1 - nr))
    in
    Edge_set.union (Edge_set.diff base removed) added
  end

let load ?cost t h =
  match cached_resolved t h with
  | Some (c, node, s) ->
    charge_hit cost h;
    lru_touch c node;
    s
  | None ->
    (* Resolve the delta chain from the deepest link that still has a
       resolved set cached (or the base extent), applying each delta on
       the way back up. Only the base and the handle actually requested
       memoize their resolved sets — intermediate links keep just their
       raw delta ints. A chain of L deltas therefore shares ONE resolved
       base entry instead of retaining L near-identical resolved copies,
       and the flush path that extends a chain by one link costs one blob
       decode plus one delta application, not a re-resolution per link. *)
    let rec resolve link =
      match link.base with
      | None ->
        (match load_node ?cost t link with
         | Some node -> set_of_node node
         | None ->
           Edge_set.of_packed_array
             (repr_ints (repr_of_blob t.enc (load_blob ?cost t link) link.n_ints)))
      | Some b ->
        let base =
          match cached_resolved t b with
          | Some (c, node, s) ->
            charge_hit cost b;
            lru_touch c node;
            s
          | None -> resolve b
        in
        let ints = load_ints ?cost t link in
        apply_delta base ints
    in
    let s = resolve h in
    (match t.cache with
     | Some c when h.n_bytes > 0 ->
       (match Hashtbl.find_opt c.tbl (cache_key t h) with
        | Some node -> node.set <- Some s
        | None -> ())
     | _ -> ());
    s

let cardinal h = h.n_ints
let stored_bytes h = h.n_bytes

(* --- block views: decode-on-gallop kernels --- *)

let bits = 31
let cmask = (1 lsl bits) - 1

type view = {
  vstore : t;
  vhandle : handle;
  vblocks : Extent_codec.t;
}

let view_store v = v.vstore
let view_handle v = v.vhandle
let view_cardinal v = Extent_codec.n_edges v.vblocks

let load_view ?cost t h =
  match t.enc with
  | `Raw -> None
  | `Block ->
    (match h.base with
     | Some _ -> None  (* delta chains resolve through [load] *)
     | None ->
       if h.n_bytes = 0 then None
       else begin
         (* page/byte I/O is charged as usual, but edges are not: the
            view kernels charge [extent_edges] for decoded blocks only *)
         match load_node ?cost ~charge_edges:false t h with
         | Some { repr = Blocks b; _ } -> Some { vstore = t; vhandle = h; vblocks = b }
         | Some { repr = Flat _; _ } -> None
         | None ->
           (match
              repr_of_blob t.enc (load_blob ?cost ~charge_edges:false t h) h.n_ints
            with
            | Blocks b -> Some { vstore = t; vhandle = h; vblocks = b }
            | Flat _ -> None)
       end)

let note_blocks ?cost t ~skipped ~decoded ~edges =
  t.skipped_blocks <- t.skipped_blocks + skipped;
  t.decoded_blocks <- t.decoded_blocks + decoded;
  match cost with
  | Some c ->
    c.Cost.blocks_skipped <- c.Cost.blocks_skipped + skipped;
    c.Cost.blocks_decoded <- c.Cost.blocks_decoded + decoded;
    c.Cost.extent_edges <- c.Cost.extent_edges + edges
  | None -> ()

let total_blocks_skipped t = t.skipped_blocks
let total_blocks_decoded t = t.decoded_blocks

let compression_stats t = (8 * t.appended_ints, t.appended_bytes)

(* Same contract as [Edge_set.semijoin_endpoints extent sorted_parents],
   evaluated without materializing the extent: the frontier cursor
   gallops forward block by block; a block whose header parent range
   falls outside the remaining frontier is never decoded. The cursor is
   global across blocks (both sides ascend) but each decoded block merges
   from a LOCAL copy — one parent's run can span a block boundary, so the
   global cursor must not advance past a parent until its last block. *)
let view_semijoin_endpoints ?cost v (sorted_parents : int array) =
  let b = v.vblocks and t = v.vstore in
  let np = Array.length sorted_parents in
  let nb = Extent_codec.n_blocks b in
  if np = 0 || Extent_codec.n_edges b = 0 then [||]
  else if np >= nb then
    (* dense frontier: with one probe per block on average the header
       test rejects almost nothing, and galloping would re-decode most of
       the extent on every call. The materialized set amortizes that
       decode across calls through the LRU, exactly like the pre-block
       representation — so skipping stays a strict win, never a tax. *)
    Edge_set.semijoin_endpoints (load ?cost t v.vhandle) sorted_parents
  else begin
    let out = Int_sorted.Buf.create 64 in
    let scratch = t.scratch in
    let fpos = ref 0 and skipped = ref 0 and decoded = ref 0 and edges = ref 0 in
    (try
       for bi = 0 to nb - 1 do
         let plo = Extent_codec.min_parent b bi and phi = Extent_codec.max_parent b bi in
         fpos := Int_sorted.gallop_lower_bound sorted_parents !fpos np plo;
         if !fpos >= np then begin
           (* frontier exhausted: every later block is out of range too *)
           skipped := !skipped + (nb - bi);
           raise Exit
         end;
         if sorted_parents.(!fpos) > phi then incr skipped
         else begin
           let count = Extent_codec.decode_block b bi scratch in
           incr decoded;
           edges := !edges + count;
           let i = ref 0 and j = ref !fpos in
           while !i < count && !j < np do
             let pt = scratch.(!i) lsr bits and p = sorted_parents.(!j) in
             if pt < p then
               i := Int_sorted.gallop_lower_bound scratch !i count (p lsl bits)
             else if pt > p then
               j := Int_sorted.gallop_lower_bound sorted_parents !j np pt
             else begin
               Int_sorted.Buf.push out (scratch.(!i) land cmask);
               incr i
             end
           done
         end
       done
     with Exit -> ());
    note_blocks ?cost t ~skipped:!skipped ~decoded:!decoded ~edges:!edges;
    Int_sorted.Buf.to_set out
  end

(* [Edge_set.endpoints] without retaining the decoded extent: streams
   every block through the scratch buffer. No skipping is possible — all
   children are wanted — but the resident representation stays
   compressed. *)
let view_endpoints ?cost v =
  let b = v.vblocks and t = v.vstore in
  let n = Extent_codec.n_edges b in
  let nb = Extent_codec.n_blocks b in
  let out = Int_sorted.Buf.create n in
  let scratch = t.scratch in
  for bi = 0 to nb - 1 do
    let count = Extent_codec.decode_block b bi scratch in
    for i = 0 to count - 1 do
      Int_sorted.Buf.push out (scratch.(i) land cmask)
    done
  done;
  note_blocks ?cost t ~skipped:0 ~decoded:nb ~edges:n;
  Int_sorted.Buf.to_set out

(* [Edge_set.semijoin_children] with header-driven skipping: a block is
   decoded only if the sorted probe set intersects its [min_child,
   max_child] range. Kept edges are a subsequence of the (sorted) extent,
   so the result needs no re-sort. *)
let view_semijoin_children ?cost v (sorted_children : int array) =
  let b = v.vblocks and t = v.vstore in
  let nb = Extent_codec.n_blocks b in
  if Array.length sorted_children = 0 || Extent_codec.n_edges b = 0 then begin
    note_blocks ?cost t ~skipped:nb ~decoded:0 ~edges:0;
    Edge_set.empty
  end
  else if Array.length sorted_children >= nb then
    (* same density cutoff as [view_semijoin_endpoints] *)
    Edge_set.semijoin_children (load ?cost t v.vhandle) sorted_children
  else begin
    let out = Int_sorted.Buf.create 64 in
    let scratch = t.scratch in
    let skipped = ref 0 and decoded = ref 0 and edges = ref 0 in
    for bi = 0 to nb - 1 do
      if
        not
          (Int_sorted.overlaps_range sorted_children ~pos:0
             ~lo:(Extent_codec.min_child b bi) ~hi:(Extent_codec.max_child b bi))
      then incr skipped
      else begin
        let count = Extent_codec.decode_block b bi scratch in
        incr decoded;
        edges := !edges + count;
        for i = 0 to count - 1 do
          let e = scratch.(i) in
          if Int_sorted.mem sorted_children (e land cmask) then Int_sorted.Buf.push out e
        done
      end
    done;
    note_blocks ?cost t ~skipped:!skipped ~decoded:!decoded ~edges:!edges;
    Edge_set.unsafe_of_sorted (Int_sorted.Buf.to_array out)
  end
