(* Block-compressed extent codec: round-trip identity, header soundness
   (the skip test must never reject a block that holds a match — checked
   by equivalence against the Edge_set reference kernels), and corruption
   rejection, standalone and through the fault-injecting pager. *)

module EC = Repro_storage.Extent_codec
module ES = Repro_storage.Extent_store
module Pager = Repro_storage.Pager
module Buffer_pool = Repro_storage.Buffer_pool
module Fault = Repro_storage.Fault
module Cost = Repro_storage.Cost
module Edge_set = Repro_graph.Edge_set
module Int_sorted = Repro_util.Int_sorted

let edge_set = Alcotest.testable Edge_set.pp Edge_set.equal

(* arbitrary extents: duplicate-heavy (parent, child) pairs collapse to a
   sorted packed-edge set; sizes straddle several 128-edge blocks *)
let arb_pairs =
  QCheck.(list_of_size (Gen.int_bound 400) (pair (int_bound 40) (int_bound 3000)))

let set_of_pairs pairs = Edge_set.of_list pairs

let arb_probe = QCheck.(list_of_size (Gen.int_bound 60) (int_bound 45))

let sorted_probe l = Int_sorted.of_unsorted (Array.of_list l)

let with_view ?(page_size = 256) set f =
  let p = Pager.create ~page_size () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let store = ES.create ~codec:`Block pool in
  let h = ES.append store set in
  match ES.load_view store h with
  | Some v -> f v
  | None -> Alcotest.fail "block store must serve a view for a full extent"

let prop_codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"encode/decode identity" arb_pairs (fun pairs ->
      let ints = (set_of_pairs pairs :> int array) in
      let b = EC.of_encoded (EC.encode ints) in
      EC.n_edges b = Array.length ints && EC.decode_all b = ints)

let prop_header_soundness =
  QCheck.Test.make ~count:200 ~name:"headers bound their block" arb_pairs (fun pairs ->
      let ints = (set_of_pairs pairs :> int array) in
      let b = EC.of_encoded (EC.encode ints) in
      let scratch = Array.make EC.block_edges 0 in
      let ok = ref true in
      for bi = 0 to EC.n_blocks b - 1 do
        let count = EC.decode_block b bi scratch in
        if count <> EC.block_count b bi then ok := false;
        for i = 0 to count - 1 do
          let parent = scratch.(i) lsr 31 and child = scratch.(i) land ((1 lsl 31) - 1) in
          if parent < EC.min_parent b bi || parent > EC.max_parent b bi then ok := false;
          if child < EC.min_child b bi || child > EC.max_child b bi then ok := false
        done
      done;
      !ok)

(* kernel equivalence IS the skip-test soundness property: a block
   wrongly skipped would drop exactly the edges the reference finds *)
let prop_semijoin_endpoints_equiv =
  QCheck.Test.make ~count:300 ~name:"view semijoin_endpoints = reference"
    QCheck.(pair arb_pairs arb_probe)
    (fun (pairs, probe) ->
      let set = set_of_pairs pairs in
      let frontier = sorted_probe probe in
      let expected = Edge_set.semijoin_endpoints set frontier in
      with_view set (fun v -> ES.view_semijoin_endpoints v frontier = expected))

let prop_endpoints_equiv =
  QCheck.Test.make ~count:200 ~name:"view endpoints = reference" arb_pairs (fun pairs ->
      let set = set_of_pairs pairs in
      with_view set (fun v -> ES.view_endpoints v = Edge_set.endpoints set))

let prop_semijoin_children_equiv =
  QCheck.Test.make ~count:300 ~name:"view semijoin_children = reference"
    QCheck.(pair arb_pairs (list_of_size (Gen.int_bound 60) (int_bound 3200)))
    (fun (pairs, probe) ->
      let set = set_of_pairs pairs in
      let children = sorted_probe probe in
      let expected = Edge_set.semijoin_children set children in
      with_view set (fun v -> Edge_set.equal (ES.view_semijoin_children v children) expected))

(* The view kernels against list references that use no set kernel:
   up to 2,000 edges under at most 12 parents (one may be null), so a
   frontier of one or two parents stays below the block count — the
   skipping path — and still yields more endpoints than the radix
   cutoff. *)
let prop_view_kernels_model =
  QCheck.Test.make ~count:200 ~name:"view kernels = list references"
    QCheck.(
      triple
        (list_of_size (Gen.int_bound 2_000)
           (pair (frequency [ (9, int_bound 12); (1, always Edge_set.null) ]) (int_bound 3_000)))
        (list_of_size (Gen.int_bound 2) (int_bound 12))
        (list_of_size (Gen.int_bound 6) (int_bound 3_000)))
    (fun (pairs, parents, children) ->
      let model = List.sort_uniq Int.compare in
      let packed = model (List.map (fun (u, v) -> Edge_set.pack u v) pairs) in
      let edges = List.map Edge_set.unpack packed in
      let set = Edge_set.unsafe_of_sorted (Array.of_list packed) in
      with_view set (fun v ->
          Array.to_list (ES.view_semijoin_endpoints v (Array.of_list (model parents)))
          = model (List.map snd (List.filter (fun (u, _) -> List.mem u parents) edges))
          && Edge_set.to_list (ES.view_semijoin_children v (Array.of_list (model children)))
             = List.filter (fun (_, c) -> List.mem c children) edges
          && Array.to_list (ES.view_endpoints v) = model (List.map snd edges)))

let test_blocks_actually_skip () =
  (* 1000 single-child parents = 8 blocks; a one-parent frontier decodes
     exactly the block holding it and skips the rest *)
  let set = Edge_set.of_list (List.init 1000 (fun i -> (i, i))) in
  with_view set (fun v ->
      let cost = Cost.create () in
      let out = ES.view_semijoin_endpoints ~cost v [| 5 |] in
      Alcotest.(check (array int)) "result" [| 5 |] out;
      Alcotest.(check int) "one block decoded" 1 cost.Cost.blocks_decoded;
      Alcotest.(check int) "the rest skipped" 7 cost.Cost.blocks_skipped;
      Alcotest.(check int) "edges charged lazily" EC.block_edges cost.Cost.extent_edges)

let test_truncation_rejected () =
  let ints = (Edge_set.of_list (List.init 300 (fun i -> (i / 9, i))) :> int array) in
  let blob = EC.encode ints in
  for len = 0 to String.length blob - 1 do
    match EC.of_encoded (String.sub blob 0 len) with
    | exception Invalid_argument _ -> ()
    | b ->
      (* header parse may succeed on a truncated payload; decoding must
         not *)
      (match EC.decode_all b with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.failf "truncation to %d bytes accepted" len)
  done

let test_bitflip_rejected () =
  (* CRC-32 catches every single-bit error, wherever it lands *)
  let ints = (Edge_set.of_list (List.init 300 (fun i -> (i / 9, i))) :> int array) in
  let blob = EC.encode ints in
  for i = 0 to String.length blob - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code blob.[i] lxor (1 lsl bit)));
      match EC.of_encoded (Bytes.unsafe_to_string b) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "flip at byte %d bit %d accepted" i bit
    done
  done

let test_stored_corruption_detected () =
  (* a pager with no fault policy never checksums pages: the codec's own
     CRC is the last line of defense for a silently damaged stored blob *)
  let p = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create p ~capacity:8 in
  let store = ES.create ~codec:`Block ~cache_entries:0 pool in
  let set = Edge_set.of_list (List.init 300 (fun i -> (i / 9, i))) in
  let h = ES.append store set in
  Alcotest.check edge_set "clean load" set (ES.load store h);
  let first_page, first_off, _, _ = ES.handle_fields h in
  let buf = Pager.unsafe_borrow p first_page in
  Bytes.set buf (first_off + 5) (Char.chr (Char.code (Bytes.get buf (first_off + 5)) lxor 0x10));
  Buffer_pool.flush pool;
  (match ES.load store h with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "corrupted stored blob accepted");
  match ES.load_view store h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "corrupted stored blob served as a view"

let test_fault_pager_heals_block_reads () =
  (* transient read faults are the pager's problem: its page checksums
     heal them before the codec ever sees the bytes *)
  let p = Pager.create ~page_size:128 () in
  let f = Fault.create ~seed:11 () in
  Pager.set_fault p (Some f);
  let pool = Buffer_pool.create p ~capacity:2 in
  let store = ES.create ~codec:`Block ~cache_entries:0 pool in
  let set = Edge_set.of_list (List.init 300 (fun i -> (i / 9, i))) in
  let h = ES.append store set in
  Fault.arm_random f ~prob:0.2 ~kinds:[ Fault.Read_flip; Fault.Short_read ];
  for _ = 1 to 20 do
    Buffer_pool.flush pool;
    Alcotest.check edge_set "heals under read faults" set (ES.load store h)
  done;
  Alcotest.(check bool) "faults actually fired" true (Fault.fired f)

let () =
  Alcotest.run "extent_codec"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_codec_roundtrip;
            prop_header_soundness;
            prop_semijoin_endpoints_equiv;
            prop_endpoints_equiv;
            prop_semijoin_children_equiv;
            prop_view_kernels_model
          ] );
      ( "skipping", [ Alcotest.test_case "blocks skip" `Quick test_blocks_actually_skip ] );
      ( "corruption",
        [ Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
          Alcotest.test_case "bit flips rejected" `Quick test_bitflip_rejected;
          Alcotest.test_case "stored blob corruption" `Quick test_stored_corruption_detected;
          Alcotest.test_case "fault pager heals" `Quick test_fault_pager_heals_block_reads
        ] )
    ]
