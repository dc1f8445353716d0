open Repro_storage
module Edge_set = Repro_graph.Edge_set
module F = Test_support.Fixtures

let edge_set = Alcotest.testable Edge_set.pp Edge_set.equal

(* --- Pager --- *)

let test_pager_alloc_rw () =
  let p = Pager.create ~page_size:128 () in
  let a = Pager.alloc p and b = Pager.alloc p in
  Alcotest.(check int) "pids dense" 1 (b - a);
  let buf = Bytes.make 128 'x' in
  Pager.write p a buf;
  Alcotest.(check bytes) "read back" buf (Pager.read p a);
  Alcotest.(check bytes) "other page untouched" (Bytes.make 128 '\000') (Pager.read p b);
  Alcotest.(check int) "reads counted" 2 (Pager.stats p).Io_stats.disk_reads;
  Alcotest.(check int) "writes counted" 1 (Pager.stats p).Io_stats.disk_writes

let test_pager_rejects () =
  let p = Pager.create ~page_size:128 () in
  let a = Pager.alloc p in
  Alcotest.check_raises "bad size"
    (Invalid_argument "Pager.write: buffer is 4 bytes, page size is 128")
    (fun () -> Pager.write p a (Bytes.make 4 ' '));
  (match Pager.read p 99 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument on unknown pid")

(* --- Buffer pool --- *)

let test_pool_hit_miss () =
  let p = Pager.create ~page_size:128 () in
  let pids = Array.init 4 (fun _ -> Pager.alloc p) in
  Array.iteri (fun i pid -> Pager.write p pid (Bytes.make 128 (Char.chr (65 + i)))) pids;
  Io_stats.reset (Pager.stats p);
  let pool = Buffer_pool.create p ~capacity:2 in
  ignore (Buffer_pool.get pool pids.(0));
  ignore (Buffer_pool.get pool pids.(0));
  let s = Pager.stats p in
  Alcotest.(check int) "1 miss" 1 s.Io_stats.cache_misses;
  Alcotest.(check int) "1 hit" 1 s.Io_stats.cache_hits;
  Alcotest.(check int) "1 disk read" 1 s.Io_stats.disk_reads

let test_pool_lru_eviction () =
  let p = Pager.create ~page_size:128 () in
  let pids = Array.init 3 (fun _ -> Pager.alloc p) in
  Io_stats.reset (Pager.stats p);
  let pool = Buffer_pool.create p ~capacity:2 in
  ignore (Buffer_pool.get pool pids.(0));
  ignore (Buffer_pool.get pool pids.(1));
  ignore (Buffer_pool.get pool pids.(0));
  (* LRU is page 1; loading page 2 evicts it *)
  ignore (Buffer_pool.get pool pids.(2));
  ignore (Buffer_pool.get pool pids.(0));
  (* page 0 still cached *)
  Alcotest.(check int) "page 0 stayed hot" 2 (Pager.stats p).Io_stats.cache_hits;
  ignore (Buffer_pool.get pool pids.(1));
  (* page 1 was evicted: another miss *)
  Alcotest.(check int) "page 1 evicted" 4 (Pager.stats p).Io_stats.cache_misses

let test_pool_write_through () =
  let p = Pager.create ~page_size:128 () in
  let pid = Pager.alloc p in
  let pool = Buffer_pool.create p ~capacity:2 in
  ignore (Buffer_pool.get pool pid);
  let buf = Bytes.make 128 'z' in
  Buffer_pool.write pool pid buf;
  Alcotest.(check bytes) "cache updated" buf (Buffer_pool.get pool pid);
  Alcotest.(check bytes) "disk updated" buf (Pager.read p pid)

let test_pool_flush () =
  let p = Pager.create ~page_size:128 () in
  let pid = Pager.alloc p in
  let pool = Buffer_pool.create p ~capacity:2 in
  ignore (Buffer_pool.get pool pid);
  Alcotest.(check int) "cached" 1 (Buffer_pool.cached_pages pool);
  Buffer_pool.flush pool;
  Alcotest.(check int) "emptied" 0 (Buffer_pool.cached_pages pool);
  ignore (Buffer_pool.get pool pid);
  Alcotest.(check int) "cold again" 2 (Pager.stats p).Io_stats.cache_misses

let test_pool_no_alloc () =
  (* frames are recycled: a hit allocates nothing, and once the pool is
     full a miss reads into the evicted frame instead of a fresh page *)
  let page_size = 4096 in
  let p = Pager.create ~page_size () in
  let pids = Array.init 8 (fun _ -> Pager.alloc p) in
  let pool = Buffer_pool.create p ~capacity:4 in
  Array.iter (fun pid -> ignore (Buffer_pool.get pool pid : bytes)) pids;
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    ignore (Buffer_pool.get pool pids.(4 + (i land 3)) : bytes)
  done;
  let hit_words = Gc.minor_words () -. before in
  if hit_words >= 10.0 then Alcotest.failf "1000 hits allocated %.0f minor words" hit_words;
  let misses = (Pager.stats p).Io_stats.cache_misses in
  let before = Gc.allocated_bytes () in
  for i = 0 to 999 do
    ignore (Buffer_pool.get pool pids.(i mod 8) : bytes)
  done;
  let miss_bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "every get missed" (misses + 1000) (Pager.stats p).Io_stats.cache_misses;
  if miss_bytes >= float_of_int page_size then
    Alcotest.failf "1000 misses allocated %.0f bytes" miss_bytes

let test_pool_heals_into_frame () =
  (* a Read_flip on a miss that recycles a frame: the verified re-read
     lands in the frame, and the pool serves the healed page from it *)
  let p = Pager.create ~page_size:128 () in
  let f = Fault.create ~seed:7 () in
  Pager.set_fault p (Some f);
  let a = Pager.alloc p and b = Pager.alloc p in
  let page_a = Bytes.make 128 'a' and page_b = Bytes.make 128 'b' in
  Pager.write p a page_a;
  Pager.write p b page_b;
  let pool = Buffer_pool.create p ~capacity:1 in
  Alcotest.(check bytes) "page a" page_a (Buffer_pool.get pool a);
  Fault.arm_at f Fault.Read_flip ~site:0;
  Alcotest.(check bytes) "page b healed" page_b (Buffer_pool.get pool b);
  Alcotest.(check bool) "fired" true (Fault.fired f);
  Alcotest.(check bool) "retry counted" true ((Pager.stats p).Io_stats.read_retries > 0);
  Alcotest.(check bytes) "healed frame hit" page_b (Buffer_pool.get pool b);
  Alcotest.(check bytes) "page a reloaded" page_a (Buffer_pool.get pool a);
  Alcotest.(check int) "one frame" 1 (Buffer_pool.cached_pages pool)

let prop_pool_invariants =
  (* random Get/Write/Flush traces against a shadow model: cached_pages
     never exceeds capacity, hit+miss reconciles with the pager's counters,
     and write-through means the disk alone reconstructs every page *)
  QCheck.Test.make ~count:200 ~name:"buffer pool invariants on random traces"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 120) (pair (int_bound 9) (int_bound 11)))
    (fun trace ->
      let page_size = 64 in
      let n_pids = 12 and capacity = 4 in
      let p = Pager.create ~page_size () in
      let pids = Array.init n_pids (fun _ -> Pager.alloc p) in
      let pool = Buffer_pool.create p ~capacity in
      Io_stats.reset (Pager.stats p);
      let model = Array.init n_pids (fun _ -> Bytes.make page_size '\000') in
      let gets = ref 0 and writes = ref 0 and stamp = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, i) ->
          (match op with
           | 0 | 1 | 2 | 3 | 4 | 5 ->
             incr gets;
             if not (Bytes.equal (Buffer_pool.get pool pids.(i)) model.(i)) then ok := false
           | 6 | 7 | 8 ->
             incr writes;
             incr stamp;
             let buf = Bytes.make page_size (Char.chr (33 + (!stamp mod 90))) in
             Buffer_pool.write pool pids.(i) buf;
             model.(i) <- buf
           | _ -> Buffer_pool.flush pool);
          if Buffer_pool.cached_pages pool > capacity then ok := false)
        trace;
      (* write-through visibility: drop the cache, the disk must serve the
         model exactly *)
      Buffer_pool.flush pool;
      Array.iteri
        (fun i pid -> if not (Bytes.equal (Pager.read p pid) model.(i)) then ok := false)
        pids;
      let s = Pager.stats p in
      !ok
      && s.Io_stats.cache_hits + s.Io_stats.cache_misses = !gets
      && s.Io_stats.disk_reads = s.Io_stats.cache_misses + n_pids
      && s.Io_stats.disk_writes = !writes)

(* --- fault injection & page checksums --- *)

let test_crc32_known () =
  (* "123456789" -> 0xCBF43926, the standard CRC-32/IEEE check value *)
  Alcotest.(check int) "check value" 0xCBF43926 (Codec.crc32 (Bytes.of_string "123456789"));
  Alcotest.(check int) "windowed" 0xCBF43926
    (Codec.crc32 ~pos:2 ~len:9 (Bytes.of_string "xx123456789yy"))

let with_faulty_pager ?(seed = 42) () =
  let p = Pager.create ~page_size:128 () in
  let f = Fault.create ~seed () in
  Pager.set_fault p (Some f);
  (p, f)

let test_fault_read_flip_healed () =
  let p, f = with_faulty_pager () in
  let pid = Pager.alloc p in
  let buf = Bytes.make 128 'a' in
  Pager.write p pid buf;
  Fault.arm_at f Fault.Read_flip ~site:0;
  Alcotest.(check bytes) "healed by verified re-read" buf (Pager.read p pid);
  Alcotest.(check bool) "retry counted" true ((Pager.stats p).Io_stats.read_retries > 0);
  Alcotest.(check bool) "fired" true (Fault.fired f);
  (* transient: the stored page was never damaged *)
  Alcotest.(check bytes) "clean after heal" buf (Pager.read p pid)

let test_fault_short_read_healed () =
  let p, f = with_faulty_pager () in
  let pid = Pager.alloc p in
  let buf = Bytes.init 128 (fun i -> Char.chr (32 + (i mod 64))) in
  Pager.write p pid buf;
  Fault.arm_at f Fault.Short_read ~site:0;
  Alcotest.(check bytes) "healed by verified re-read" buf (Pager.read p pid)

let test_fault_write_flip_detected () =
  let p, f = with_faulty_pager () in
  let pid = Pager.alloc p in
  let buf = Bytes.make 128 'a' in
  Fault.arm_at f Fault.Write_flip ~site:0;
  Pager.write p pid buf;
  (* silent at write time *)
  Alcotest.(check bool) "landed corrupted" false
    (Bytes.equal buf (Pager.unsafe_borrow p pid));
  (* loud at read time: persistent corruption survives every retry *)
  (match Pager.read p pid with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected checksum failure");
  Alcotest.(check int) "bounded retries" 3 (Pager.stats p).Io_stats.read_retries

let test_fault_torn_write_crashes () =
  let p, f = with_faulty_pager () in
  let pid = Pager.alloc p in
  Pager.write p pid (Bytes.make 128 'a');
  Fault.arm_at f Fault.Torn_write ~site:0;
  (match Pager.write p pid (Bytes.make 128 'b') with
   | exception Fault.Injected { kind = Fault.Torn_write; _ } -> ()
   | () -> Alcotest.fail "expected the simulated crash");
  (* a prefix of the new generation over the tail of the old one *)
  let torn = Pager.unsafe_borrow p pid in
  Alcotest.(check char) "head is new" 'b' (Bytes.get torn 0);
  Alcotest.(check char) "tail is old" 'a' (Bytes.get torn 127);
  (* sector checksums travel with the data: page-level verification cannot
     see the tear — only a higher-level checksum can *)
  Alcotest.(check bytes) "torn page reads back consistently" torn (Pager.read p pid)

let test_fault_enospc_crashes () =
  let p, f = with_faulty_pager () in
  Fault.arm_at f Fault.Enospc ~site:0;
  (match Pager.alloc p with
   | exception Fault.Injected { kind = Fault.Enospc; _ } -> ()
   | _ -> Alcotest.fail "expected allocation failure");
  (* one-shot: the policy disarmed itself *)
  Alcotest.(check int) "next alloc succeeds" 0 (Pager.alloc p)

let test_no_policy_no_verification () =
  (* without a policy the hot path never checksums: hand-corrupted pages
     read back silently, exactly like the pre-fault pager *)
  let p = Pager.create ~page_size:128 () in
  let pid = Pager.alloc p in
  Pager.write p pid (Bytes.make 128 'a');
  Bytes.set (Pager.unsafe_borrow p pid) 7 'X';
  Alcotest.(check char) "corruption invisible" 'X' (Bytes.get (Pager.read p pid) 7)

(* --- Extent store --- *)

let with_store ?(page_size = 128) ?(capacity = 8) () =
  let p = Pager.create ~page_size () in
  let pool = Buffer_pool.create p ~capacity in
  (p, pool, Extent_store.create pool)

let test_extent_roundtrip () =
  let _, _, store = with_store () in
  let sets =
    [ Edge_set.of_list [ (1, 2); (3, 4) ];
      Edge_set.empty;
      Edge_set.of_list (List.init 100 (fun i -> (i, i + 1)));
      Edge_set.of_list [ (Edge_set.null, 0) ]
    ]
  in
  let handles = List.map (Extent_store.append store) sets in
  List.iter2
    (fun set h -> Alcotest.check edge_set "roundtrip" set (Extent_store.load store h))
    sets handles

let test_extent_cost_charged () =
  let _, _, store = with_store ~page_size:128 () in
  (* 128-byte pages hold 16 ints; 100 edges span ≥ 7 pages *)
  let set = Edge_set.of_list (List.init 100 (fun i -> (i, i + 1))) in
  let h = Extent_store.append store set in
  let cost = Cost.create () in
  ignore (Extent_store.load ~cost store h);
  Alcotest.(check int) "edges charged" 100 cost.Cost.extent_edges;
  Alcotest.(check bool) "pages charged" true (cost.Cost.extent_pages >= 7);
  Alcotest.(check int) "pages match prediction" (Extent_store.pages_spanned store h)
    cost.Cost.extent_pages

let test_extent_interleaved_alloc () =
  (* another component allocating pages between appends must not corrupt
     extents (they require consecutive pids) *)
  let p, _, store = with_store () in
  let s1 = Edge_set.of_list [ (1, 1) ] in
  let h1 = Extent_store.append store s1 in
  ignore (Pager.alloc p);
  (* foreign page at the tail *)
  let s2 = Edge_set.of_list (List.init 40 (fun i -> (i, i))) in
  let h2 = Extent_store.append store s2 in
  Alcotest.check edge_set "first intact" s1 (Extent_store.load store h1);
  Alcotest.check edge_set "second spans fresh pages" s2 (Extent_store.load store h2)

let test_extent_delta_chain () =
  let _, _, store = with_store ~page_size:128 () in
  let base_set = Edge_set.of_list (List.init 60 (fun i -> (i, i + 1))) in
  let h0 = Extent_store.append store base_set in
  Alcotest.(check int) "full extent has no links" 0 (Extent_store.chain_length h0);
  let removed = Edge_set.of_list [ (0, 1); (2, 3) ] in
  let added = Edge_set.of_list [ (100, 101) ] in
  let h1 = Extent_store.append_delta store ~base:h0 ~removed ~added in
  Alcotest.(check int) "one link" 1 (Extent_store.chain_length h1);
  Alcotest.check edge_set "chain resolves"
    (Edge_set.union (Edge_set.diff base_set removed) added)
    (Extent_store.load store h1);
  (* write I/O proportional to the change: the blob holds 3 edges + a
     count, not the 58-edge extent *)
  Alcotest.(check bool) "delta blob smaller than the extent" true
    (Extent_store.stored_bytes h1 < Extent_store.stored_bytes h0);
  (* a second link may retract an edge the first one added *)
  let h2 = Extent_store.append_delta store ~base:h1 ~removed:added ~added:Edge_set.empty in
  Alcotest.(check int) "two links" 2 (Extent_store.chain_length h2);
  Alcotest.check edge_set "retraction resolves"
    (Edge_set.diff base_set removed)
    (Extent_store.load store h2);
  (* the base handle still names the original set *)
  Alcotest.check edge_set "base unchanged" base_set (Extent_store.load store h0);
  (* delta handles are in-memory only: snapshot commits must re-encode *)
  match Extent_store.handle_fields h1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "handle_fields must reject a delta handle"

let test_extent_delta_uncached () =
  (* with the decoded-extent LRU off, every load re-reads and re-resolves
     the whole chain — and still agrees *)
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let store = Extent_store.create ~cache_entries:0 pool in
  let base_set = Edge_set.of_list (List.init 30 (fun i -> (2 * i, 2 * i)) ) in
  let h = ref (Extent_store.append store base_set) in
  let expected = ref base_set in
  for i = 0 to 3 do
    let added = Edge_set.of_list [ (1000 + i, i) ] in
    h := Extent_store.append_delta store ~base:!h ~removed:Edge_set.empty ~added;
    expected := Edge_set.union !expected added
  done;
  Alcotest.(check int) "four links" 4 (Extent_store.chain_length !h);
  Alcotest.check edge_set "first load" !expected (Extent_store.load store !h);
  Alcotest.check edge_set "second load identical" !expected (Extent_store.load store !h)

let test_extent_varint_roundtrip () =
  (* full extents take the gap-varint blocks of [`Block]; an unsorted
     delta payload takes its tag-0 zigzag varint stream *)
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let store = Extent_store.create ~codec:`Block pool in
  let sets =
    [ Edge_set.of_list [ (1, 2); (3, 4) ];
      Edge_set.empty;
      Edge_set.of_list (List.init 200 (fun i -> (i * 3, i + 1)));
      (* extremes of the packed-edge range *)
      Edge_set.of_list [ (Edge_set.null, (1 lsl 31) - 1); (0, 0) ]
    ]
  in
  let handles = List.map (Extent_store.append store) sets in
  List.iter2
    (fun set h -> Alcotest.check edge_set "varint roundtrip" set (Extent_store.load store h))
    sets handles;
  (* removed edges above the added ones: the payload is not sorted *)
  let base = List.nth sets 2 and h = List.nth handles 2 in
  let removed = Edge_set.of_list [ (597, 200) ] in
  let added = Edge_set.of_list [ (0, 0); (Edge_set.null, 7) ] in
  let hd = Extent_store.append_delta store ~base:h ~removed ~added in
  Alcotest.check edge_set "varint delta roundtrip"
    (Edge_set.union (Edge_set.diff base removed) added)
    (Extent_store.load store hd)

let test_extent_varint_compresses () =
  let p = Pager.create ~page_size:8192 () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let raw = Extent_store.create ~codec:`Raw pool in
  let var = Extent_store.create ~codec:`Block pool in
  (* a dense, sorted extent: consecutive edges under one parent *)
  let set = Edge_set.of_list (List.init 512 (fun i -> (7, i))) in
  let hr = Extent_store.append raw set in
  let hv = Extent_store.append var set in
  Alcotest.(check int) "raw is 8 bytes/int" (512 * 8) (Extent_store.stored_bytes hr);
  Alcotest.(check bool)
    (Printf.sprintf "varint %d bytes << raw" (Extent_store.stored_bytes hv))
    true
    (Extent_store.stored_bytes hv * 3 < Extent_store.stored_bytes hr);
  Alcotest.check edge_set "still equal" (Extent_store.load raw hr) (Extent_store.load var hv);
  (* the same dense run as an unsorted delta payload (one removed edge
     above every added one) goes through the zigzag varint stream *)
  let removed = Edge_set.of_list [ (7, 511) ] in
  let added = Edge_set.of_list (List.init 512 (fun i -> (6, i))) in
  let dr = Extent_store.append_delta raw ~base:hr ~removed ~added in
  let dv = Extent_store.append_delta var ~base:hv ~removed ~added in
  Alcotest.(check int) "raw delta is 8 bytes/int" (514 * 8) (Extent_store.stored_bytes dr);
  Alcotest.(check bool)
    (Printf.sprintf "varint delta %d bytes << raw" (Extent_store.stored_bytes dv))
    true
    (Extent_store.stored_bytes dv * 3 < Extent_store.stored_bytes dr);
  Alcotest.check edge_set "delta still equal" (Extent_store.load raw dr)
    (Extent_store.load var dv)

let prop_extent_block_roundtrip =
  QCheck.Test.make ~count:150 ~name:"block extent roundtrip"
    QCheck.(list_of_size (QCheck.Gen.int_bound 80) (pair (int_bound 2_000_000) (int_bound 2_000_000)))
    (fun pairs ->
      let p = Pager.create ~page_size:256 () in
      let pool = Buffer_pool.create p ~capacity:8 in
      let store = Extent_store.create ~codec:`Block pool in
      let set = Edge_set.of_list pairs in
      let h = Extent_store.append store set in
      Edge_set.equal set (Extent_store.load store h))

let prop_extent_roundtrip =
  QCheck.Test.make ~count:100 ~name:"extent store roundtrip"
    QCheck.(list_of_size (QCheck.Gen.int_bound 60) (pair (int_bound 1000) (int_bound 1000)))
    (fun pairs ->
      let _, _, store = with_store () in
      let set = Edge_set.of_list pairs in
      let h = Extent_store.append store set in
      Edge_set.equal set (Extent_store.load store h))

let test_extent_block_roundtrip () =
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let store = Extent_store.create ~codec:`Block pool in
  let sets =
    [ Edge_set.of_list [ (1, 2); (3, 4) ];
      Edge_set.empty;
      (* several blocks' worth, runs spanning block boundaries *)
      Edge_set.of_list (List.init 500 (fun i -> (i / 90, i)));
      (* extremes of the packed-edge range *)
      Edge_set.of_list [ (Edge_set.null, (1 lsl 31) - 1); (0, 0) ]
    ]
  in
  let handles = List.map (Extent_store.append store) sets in
  List.iter2
    (fun set h -> Alcotest.check edge_set "block roundtrip" set (Extent_store.load store h))
    sets handles;
  (* delta chains still resolve over the block codec *)
  let base = List.nth sets 2 and h = List.nth handles 2 in
  let removed = Edge_set.of_list [ (0, 0); (0, 1) ] in
  let added = Edge_set.of_list [ (9, 900) ] in
  let hd = Extent_store.append_delta store ~base:h ~removed ~added in
  Alcotest.check edge_set "block delta resolves"
    (Edge_set.union (Edge_set.diff base removed) added)
    (Extent_store.load store hd)

let test_extent_block_compresses () =
  let p = Pager.create ~page_size:8192 () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let raw = Extent_store.create ~codec:`Raw pool in
  let blk = Extent_store.create ~codec:`Block pool in
  let set = Edge_set.of_list (List.init 512 (fun i -> (7, i))) in
  let hr = Extent_store.append raw set in
  let hb = Extent_store.append blk set in
  Alcotest.(check bool)
    (Printf.sprintf "block %d bytes << raw %d" (Extent_store.stored_bytes hb)
       (Extent_store.stored_bytes hr))
    true
    (Extent_store.stored_bytes hb * 3 < Extent_store.stored_bytes hr);
  Alcotest.check edge_set "still equal" (Extent_store.load raw hr) (Extent_store.load blk hb);
  let logical, stored = Extent_store.compression_stats blk in
  Alcotest.(check int) "logical bytes = 8/int" (512 * 8) logical;
  Alcotest.(check bool) "stats agree with handle" true (stored = Extent_store.stored_bytes hb)

let test_extent_chain_shares_base () =
  (* the decoded-extent LRU must share ONE resolved base across a delta
     chain: re-resolving (or worse, re-decoding) the base once per link
     made chained loads O(chain^2) *)
  let _, _, store = with_store ~page_size:128 () in
  let base_set = Edge_set.of_list (List.init 200 (fun i -> (i, i + 1))) in
  let h = ref (Extent_store.append store base_set) in
  let expected = ref base_set in
  for i = 0 to 3 do
    let added = Edge_set.of_list [ (5000 + i, i) ] in
    h := Extent_store.append_delta store ~base:!h ~removed:Edge_set.empty ~added;
    expected := Edge_set.union !expected added
  done;
  Alcotest.(check int) "chain at the cap" 4 (Extent_store.chain_length !h);
  (* cold: base + 4 delta blobs, each decoded exactly once *)
  let cold = Cost.create () in
  Alcotest.check edge_set "cold resolve" !expected (Extent_store.load ~cost:cold store !h);
  Alcotest.(check int) "cold misses" 5 cold.Cost.extent_cache_misses;
  Alcotest.(check int) "cold hits" 0 cold.Cost.extent_cache_hits;
  (* warm: the resolved head is cached whole *)
  let warm = Cost.create () in
  Alcotest.check edge_set "warm resolve" !expected (Extent_store.load ~cost:warm store !h);
  Alcotest.(check int) "warm hits" 1 warm.Cost.extent_cache_hits;
  Alcotest.(check int) "warm misses" 0 warm.Cost.extent_cache_misses;
  Alcotest.(check int) "warm reads no pages" 0 warm.Cost.extent_pages;
  (* extending the chain by one link costs one new blob decode plus one
     cached-base hit — NOT a re-resolution of every link *)
  let added = Edge_set.of_list [ (6000, 0) ] in
  let h5 = Extent_store.append_delta store ~base:!h ~removed:Edge_set.empty ~added in
  let ext = Cost.create () in
  Alcotest.check edge_set "extended resolve"
    (Edge_set.union !expected added)
    (Extent_store.load ~cost:ext store h5);
  Alcotest.(check int) "extend misses only the new blob" 1 ext.Cost.extent_cache_misses;
  Alcotest.(check int) "extend hits the resolved base" 1 ext.Cost.extent_cache_hits

let test_extent_block_delta_payload_not_poisoned () =
  (* regression: a delta whose payload ints happen to be strictly
     ascending is block-encoded like an extent; resolving THROUGH it must
     not cache the raw payload as that link's resolved set *)
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let store = Extent_store.create ~codec:`Block pool in
  let base_set = Edge_set.of_list [ (0, 2); (0, 5); (0, 7) ] in
  let h0 = Extent_store.append store base_set in
  (* payload = [1; pack(0,5); pack(0,9)] = [1; 5; 9] — sorted, ascending *)
  let h1 =
    Extent_store.append_delta store ~base:h0
      ~removed:(Edge_set.of_list [ (0, 5) ])
      ~added:(Edge_set.of_list [ (0, 9) ])
  in
  let h2 =
    Extent_store.append_delta store ~base:h1 ~removed:Edge_set.empty
      ~added:(Edge_set.of_list [ (0, 11) ])
  in
  let want1 = Edge_set.of_list [ (0, 2); (0, 7); (0, 9) ] in
  (* loading h2 first resolves h1's blob as an intermediate link *)
  Alcotest.check edge_set "chain through ascending delta"
    (Edge_set.union want1 (Edge_set.of_list [ (0, 11) ]))
    (Extent_store.load store h2);
  Alcotest.check edge_set "intermediate link unpoisoned" want1 (Extent_store.load store h1)

(* --- Data table --- *)

let test_data_table_basic () =
  let g = F.movie_db () in
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:4 in
  let table = Data_table.build pool g in
  Alcotest.(check int) "entries = leaves with values" 4 (Data_table.n_entries table);
  Alcotest.(check (option string)) "title" (Some "Waterworld") (Data_table.lookup table 7);
  Alcotest.(check (option string)) "name" (Some "Kevin") (Data_table.lookup table 2);
  Alcotest.(check (option string)) "non-leaf" None (Data_table.lookup table 6);
  Alcotest.(check (option string)) "unknown nid" None (Data_table.lookup table 99);
  Alcotest.(check (array int)) "filter" [| 7 |]
    (Data_table.filter_matching table [| 2; 6; 7; 8 |] "Waterworld");
  Alcotest.check_raises "descending candidates"
    (Invalid_argument "Data_table.filter_matching: candidates not ascending") (fun () ->
      ignore (Data_table.filter_matching table [| 7; 2 |] "Kevin"))

let test_data_table_cost () =
  let g = F.movie_db () in
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:4 in
  let table = Data_table.build pool g in
  let cost = Cost.create () in
  ignore (Data_table.lookup ~cost table 7);
  ignore (Data_table.lookup ~cost table 2);
  Alcotest.(check int) "pages charged" 2 cost.Cost.table_pages;
  ignore (Data_table.lookup ~cost table 6);
  (* probing a nid below the table range costs no page *)
  Alcotest.(check bool) "miss may still read one page" true (cost.Cost.table_pages <= 3)

let test_data_table_iter () =
  let g = F.movie_db () in
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:4 in
  let table = Data_table.build pool g in
  let seen = ref [] in
  Data_table.iter table (fun nid v -> seen := (nid, v) :: !seen);
  Alcotest.(check (list (pair int string)))
    "all records in nid order"
    [ (2, "Kevin"); (4, "Jeanne"); (7, "Waterworld"); (8, "Reynolds") ]
    (List.rev !seen)

let test_data_table_many_pages () =
  let b = Repro_graph.Data_graph.Builder.create () in
  let root = Repro_graph.Data_graph.Builder.add_node b in
  for i = 0 to 199 do
    let leaf = Repro_graph.Data_graph.Builder.add_node ~value:(Printf.sprintf "value-%04d" i) b in
    Repro_graph.Data_graph.Builder.add_edge b root "item" leaf
  done;
  let g = Repro_graph.Data_graph.Builder.build ~root b in
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:4 in
  let table = Data_table.build pool g in
  Alcotest.(check bool) "spans many pages" true (Data_table.n_pages table > 10);
  (* every record still retrievable *)
  for i = 0 to 199 do
    Alcotest.(check (option string))
      (Printf.sprintf "nid %d" (i + 1))
      (Some (Printf.sprintf "value-%04d" i))
      (Data_table.lookup table (i + 1))
  done

(* values past one 128-byte page spill to overflow chains; every reader
   sees them whole, and a compare reads the chain only on a length match *)
let test_data_table_overflow () =
  let module B = Repro_graph.Data_graph.Builder in
  let b = B.create () in
  let root = B.add_node b in
  let long = String.init 1_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let values = [ "v1"; long; "v3"; String.make 240 'z'; "v5" ] in
  List.iter (fun v -> B.add_edge b root "item" (B.add_node ~value:v b)) values;
  let g = B.build ~root b in
  let pool = Buffer_pool.create (Pager.create ~page_size:128 ()) ~capacity:2 in
  let table = Data_table.build pool g in
  List.iteri
    (fun i v ->
      Alcotest.(check (option string))
        (Printf.sprintf "lookup %d" (i + 1))
        (Some v)
        (Data_table.lookup table (i + 1)))
    values;
  let seen = ref [] in
  Data_table.iter table (fun nid v -> seen := (nid, v) :: !seen);
  Alcotest.(check (list (pair int string)))
    "iter" (List.mapi (fun i v -> (i + 1, v)) values) (List.rev !seen);
  let all = [| 1; 2; 3; 4; 5 |] in
  let cost = Cost.create () in
  Alcotest.(check (array int))
    "long value matched" [| 2 |] (Data_table.filter_matching ~cost table all long);
  (* 1,000 bytes over 120-byte overflow payloads: 9 chain pages *)
  let pages =
    List.length
      (List.sort_uniq Int.compare (List.filter_map (Data_table.locate table) (Array.to_list all)))
  in
  Alcotest.(check int) "chain charged" (pages + 9) cost.Cost.table_pages;
  let near = String.sub long 0 999 ^ "!" in
  Alcotest.(check (array int)) "near miss" [||] (Data_table.filter_matching table all near);
  let cost = Cost.create () in
  Alcotest.(check (array int))
    "short value" [| 3 |] (Data_table.filter_matching ~cost table all "v3");
  Alcotest.(check int) "length mismatch reads no chain" pages cost.Cost.table_pages

let prop_filter_matching =
  (* the merge pass against a per-candidate lookup filter, over 128-byte
     pages and a 2-frame pool, so frames are recycled inside one call.
     Values are drawn from a small pool with "" and equal-length near
     misses; candidates mix nids with and without values, nids below the
     first page and past the last one, and repeats *)
  let vocab = [| ""; "a"; "b"; "ab"; "ba"; "abc"; "abd"; "value-0001"; "value-0002" |] in
  let gen =
    QCheck.Gen.(
      let* leaves = list_size (int_range 0 80) (opt ~ratio:0.7 (oneofa vocab)) in
      let n_nodes = List.length leaves + 1 in
      let* candidates = list_size (int_bound 60) (int_bound (n_nodes + 4)) in
      let* value = oneofa vocab in
      return (leaves, List.sort Int.compare candidates, value))
  in
  let print (leaves, candidates, value) =
    Printf.sprintf "leaves=[%s] candidates=[%s] value=%S"
      (String.concat "; " (List.map (Option.fold ~none:"-" ~some:(Printf.sprintf "%S")) leaves))
      (String.concat "; " (List.map string_of_int candidates))
      value
  in
  QCheck.Test.make ~count:300 ~name:"filter_matching = per-candidate lookup filter"
    (QCheck.make ~print gen)
    (fun (leaves, candidates, value) ->
      let module B = Repro_graph.Data_graph.Builder in
      let b = B.create () in
      let root = B.add_node b in
      List.iter (fun v -> B.add_edge b root "item" (B.add_node ?value:v b)) leaves;
      let g = B.build ~root b in
      let pool = Buffer_pool.create (Pager.create ~page_size:128 ()) ~capacity:2 in
      let table = Data_table.build pool g in
      let candidates = Array.of_list candidates in
      let cost = Cost.create () in
      let got = Data_table.filter_matching ~cost table candidates value in
      let want =
        Array.of_seq
          (Seq.filter
             (fun nid -> Option.equal String.equal (Data_table.lookup table nid) (Some value))
             (Array.to_seq candidates))
      in
      let pages =
        Array.to_list candidates |> List.filter_map (Data_table.locate table)
        |> List.sort_uniq Int.compare
      in
      got = want && cost.Cost.table_pages = List.length pages)

(* --- Cost --- *)

let test_cost_add () =
  let a = Cost.create () and b = Cost.create () in
  a.Cost.hash_probes <- 3;
  b.Cost.hash_probes <- 4;
  b.Cost.extent_pages <- 2;
  Cost.add a b;
  Alcotest.(check int) "probes" 7 a.Cost.hash_probes;
  Alcotest.(check int) "pages" 2 a.Cost.extent_pages

let test_cost_weighted () =
  let c = Cost.create () in
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Cost.weighted_total c);
  c.Cost.extent_pages <- 10;
  let base = Cost.weighted_total c in
  c.Cost.hash_probes <- 50;
  Alcotest.(check bool) "probes add less than a page" true
    (Cost.weighted_total c -. base < 1.01 && Cost.weighted_total c > base)

let () =
  Alcotest.run "storage"
    [ ( "pager",
        [ Alcotest.test_case "alloc/read/write" `Quick test_pager_alloc_rw;
          Alcotest.test_case "rejects bad input" `Quick test_pager_rejects
        ] );
      ( "buffer_pool",
        [ Alcotest.test_case "hit/miss accounting" `Quick test_pool_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_pool_lru_eviction;
          Alcotest.test_case "write-through" `Quick test_pool_write_through;
          Alcotest.test_case "flush" `Quick test_pool_flush;
          Alcotest.test_case "recycled frames do not allocate" `Quick test_pool_no_alloc;
          Alcotest.test_case "read flip heals into a frame" `Quick test_pool_heals_into_frame;
          QCheck_alcotest.to_alcotest prop_pool_invariants
        ] );
      ( "faults",
        [ Alcotest.test_case "crc32 check value" `Quick test_crc32_known;
          Alcotest.test_case "read flip healed" `Quick test_fault_read_flip_healed;
          Alcotest.test_case "short read healed" `Quick test_fault_short_read_healed;
          Alcotest.test_case "write flip detected" `Quick test_fault_write_flip_detected;
          Alcotest.test_case "torn write crashes" `Quick test_fault_torn_write_crashes;
          Alcotest.test_case "enospc crashes" `Quick test_fault_enospc_crashes;
          Alcotest.test_case "no policy, no verification" `Quick test_no_policy_no_verification
        ] );
      ( "extent_store",
        [ Alcotest.test_case "roundtrip" `Quick test_extent_roundtrip;
          Alcotest.test_case "cost charged" `Quick test_extent_cost_charged;
          Alcotest.test_case "interleaved alloc" `Quick test_extent_interleaved_alloc;
          Alcotest.test_case "delta chain" `Quick test_extent_delta_chain;
          Alcotest.test_case "delta chain uncached" `Quick test_extent_delta_uncached;
          Alcotest.test_case "varint roundtrip" `Quick test_extent_varint_roundtrip;
          Alcotest.test_case "varint compresses" `Quick test_extent_varint_compresses;
          Alcotest.test_case "block roundtrip" `Quick test_extent_block_roundtrip;
          Alcotest.test_case "block compresses" `Quick test_extent_block_compresses;
          Alcotest.test_case "chain shares base" `Quick test_extent_chain_shares_base;
          Alcotest.test_case "ascending delta payload" `Quick
            test_extent_block_delta_payload_not_poisoned;
          QCheck_alcotest.to_alcotest prop_extent_roundtrip;
          QCheck_alcotest.to_alcotest prop_extent_block_roundtrip
        ] );
      ( "data_table",
        [ Alcotest.test_case "basic lookup" `Quick test_data_table_basic;
          Alcotest.test_case "cost accounting" `Quick test_data_table_cost;
          Alcotest.test_case "iter" `Quick test_data_table_iter;
          Alcotest.test_case "overflow pages" `Quick test_data_table_overflow;
          Alcotest.test_case "many pages" `Quick test_data_table_many_pages;
          QCheck_alcotest.to_alcotest prop_filter_matching
        ] );
      ( "cost",
        [ Alcotest.test_case "add" `Quick test_cost_add;
          Alcotest.test_case "weighted total" `Quick test_cost_weighted
        ] )
    ]
