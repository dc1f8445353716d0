(* Save/load round-trips for whole APEX instances. *)

module F = Test_support.Fixtures
module G = Repro_graph.Data_graph
module Edge_set = Repro_graph.Edge_set
module Query = Repro_pathexpr.Query
open Repro_apex

let with_store () =
  let pager = Repro_storage.Pager.create ~page_size:512 () in
  let pool = Repro_storage.Buffer_pool.create pager ~capacity:32 in
  (pool, Repro_storage.Extent_store.create pool)

let extents_equal a b =
  let ea = Apex_spec.apex_extents a and eb = Apex_spec.apex_extents b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (p1, s1) (p2, s2) ->
         Repro_pathexpr.Label_path.equal p1 p2 && Edge_set.equal s1 s2)
       ea eb

let movie_workload g =
  [ F.path g [ "actor"; "name" ]; F.path g [ "actor"; "name" ]; F.path g [ "movie"; "title" ] ]

let test_roundtrip_apex0 () =
  let g = F.movie_db () in
  let apex = Apex.build g in
  let _, store = with_store () in
  let handle = Apex_persist.save apex store in
  let loaded = Apex_persist.load g store handle in
  Alcotest.(check bool) "extents identical" true (extents_equal apex loaded);
  Alcotest.(check bool) "stats identical" true (Apex.stats apex = Apex.stats loaded)

let test_roundtrip_adapted () =
  let g = F.movie_db () in
  let apex = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  let _, store = with_store () in
  let handle = Apex_persist.save apex store in
  let loaded = Apex_persist.load g store handle in
  Alcotest.(check bool) "extents identical" true (extents_equal apex loaded);
  Alcotest.(check bool) "invariant holds" true (Hash_tree.check_invariant (Apex.tree loaded))

let test_loaded_queries_match () =
  let g = F.movie_db () in
  let apex = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  let _, store = with_store () in
  let loaded = Apex_persist.load g store (Apex_persist.save apex store) in
  List.iter
    (fun text ->
      let q = Result.get_ok (Query.parse text) in
      Alcotest.(check (array int)) text (Apex_query.eval_query apex q)
        (Apex_query.eval_query loaded q))
    [ "//actor/name"; "//name"; "//movie//title"; "//director//name";
      {|//name[text()="Kevin"]|}; "//@movie=>movie" ]

let test_loaded_index_refreshable () =
  (* the loaded copy keeps adapting: counts/flags survive the round trip *)
  let g = F.movie_db () in
  let apex = Apex.build g in
  let _, store = with_store () in
  let loaded = Apex_persist.load g store (Apex_persist.save apex store) in
  Apex.refresh loaded ~workload:(movie_workload g) ~min_support:0.5;
  let fresh = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  Alcotest.(check bool) "refresh after load = fresh adapt" true (extents_equal loaded fresh)

let test_multiple_images_one_store () =
  let g = F.movie_db () in
  let apex0 = Apex.build g in
  let adapted = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  let _, store = with_store () in
  let h0 = Apex_persist.save apex0 store in
  let h1 = Apex_persist.save adapted store in
  Alcotest.(check bool) "first image intact" true
    (extents_equal apex0 (Apex_persist.load g store h0));
  Alcotest.(check bool) "second image intact" true
    (extents_equal adapted (Apex_persist.load g store h1))

let test_corrupt_image_rejected () =
  let g = F.movie_db () in
  let _, store = with_store () in
  let bogus = Repro_storage.Extent_store.append_ints store [| 1; 2; 3 |] in
  match Apex_persist.load g store bogus with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on a bad image"

(* --- image fuzzing: of_image must return or reject, never die --- *)

(* Contract under arbitrary corruption: [of_image] either returns an index
   or raises [Invalid_argument]. Anything else — another exception, a
   huge-allocation attempt from a smashed length field, a hang — is a bug.
   (Wrong-but-parseable images are the snapshot layer's problem: its CRCs
   reject them before [of_image] ever runs.) *)
let fuzz_image g apex image seed =
  let n = Array.length image in
  let rand = Random.State.make [| seed |] in
  let attempt tag arr =
    match Apex_persist.of_image g arr with
    | (_ : Apex.t) -> ()
    | exception Invalid_argument _ -> ()
    | exception e -> Alcotest.failf "%s: of_image escaped with %s" tag (Printexc.to_string e)
  in
  (* truncations: all short prefixes, then sampled longer ones *)
  for len = 0 to Int.min n 40 do
    attempt "truncate" (Array.sub image 0 len)
  done;
  for _ = 1 to 200 do
    attempt "truncate" (Array.sub image 0 (Random.State.int rand (n + 1)))
  done;
  (* single bit flips — length fields become huge or negative *)
  for _ = 1 to 500 do
    let m = Array.copy image in
    let i = Random.State.int rand n in
    m.(i) <- m.(i) lxor (1 lsl Random.State.int rand 62);
    attempt "bitflip" m
  done;
  (* whole-value smashes, including negatives *)
  for _ = 1 to 300 do
    let m = Array.copy image in
    m.(Random.State.int rand n) <- Random.State.int rand 0x3FFFFFFF - 0x1FFFFFFF;
    attempt "smash" m
  done;
  (* pairwise permutations *)
  for _ = 1 to 300 do
    let m = Array.copy image in
    let i = Random.State.int rand n and j = Random.State.int rand n in
    let tmp = m.(i) in
    m.(i) <- m.(j);
    m.(j) <- tmp;
    attempt "swap" m
  done;
  (* splices: two random slices glued together *)
  for _ = 1 to 200 do
    let slice () =
      let a = Random.State.int rand n and b = Random.State.int rand n in
      Array.sub image (Int.min a b) (abs (a - b))
    in
    attempt "splice" (Array.append (slice ()) (slice ()))
  done;
  (* sanity: the unmutated image still round-trips *)
  Alcotest.(check bool) "pristine image loads" true
    (extents_equal apex (Apex_persist.of_image g image))

let test_fuzz_of_image () =
  let g = F.movie_db () in
  let apex = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  fuzz_image g apex (Apex_persist.to_image apex) 0xF022

let test_old_magic_rejected () =
  (* the retired absolute-entry format ("APEX" magic) has no reader: such
     an image is malformed, reported as of_image's documented error *)
  let g = F.movie_db () in
  let apex = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  let image = Array.copy (Apex_persist.to_image apex) in
  image.(0) <- 0x41504558;
  match Apex_persist.of_image g image with
  | _ -> Alcotest.fail "an APEX-magic image loaded"
  | exception Invalid_argument m -> Alcotest.(check string) "error" "Apex_persist.load: bad magic" m
  | exception e -> Alcotest.failf "of_image escaped with %s" (Printexc.to_string e)

(* --- crash-consistent snapshot epochs --- *)

module Snapshot = Apex_persist.Snapshot

let test_snapshot_epochs () =
  let g = F.movie_db () in
  let _pool, store = with_store () in
  let snap = Snapshot.create store in
  (match Snapshot.load_latest snap g with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "load_latest before any commit must raise");
  let apex0 = Apex.build g in
  let adapted = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  Alcotest.(check int) "first epoch" 1 (Snapshot.commit snap apex0);
  Alcotest.(check bool) "epoch 1 loads" true (extents_equal apex0 (Snapshot.load_latest snap g));
  Alcotest.(check int) "second epoch" 2 (Snapshot.commit snap adapted);
  Alcotest.(check bool) "epoch 2 loads" true
    (extents_equal adapted (Snapshot.load_latest snap g));
  Alcotest.(check int) "epoch counter" 2 (Snapshot.epoch snap)

let test_snapshot_attach_after_restart () =
  let g = F.movie_db () in
  let pool, store = with_store () in
  let pager = Repro_storage.Buffer_pool.pager pool in
  let snap = Snapshot.create store in
  let adapted = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  ignore (Snapshot.commit snap (Apex.build g) : int);
  ignore (Snapshot.commit snap adapted : int);
  (* "restart": a fresh pool and store over the surviving pager, knowing
     only the superblock pid *)
  let pool2 = Repro_storage.Buffer_pool.create pager ~capacity:32 in
  let store2 = Repro_storage.Extent_store.create pool2 in
  let snap2 = Snapshot.attach store2 ~superblock:(Snapshot.superblock snap) in
  Alcotest.(check int) "epoch numbering resumes" 2 (Snapshot.epoch snap2);
  Alcotest.(check bool) "survives restart" true
    (extents_equal adapted (Snapshot.load_latest snap2 g))

let test_snapshot_falls_back_on_corruption () =
  let g = F.movie_db () in
  let pool, store = with_store () in
  let pager = Repro_storage.Buffer_pool.pager pool in
  let snap = Snapshot.create store in
  let apex0 = Apex.build g in
  let adapted = Apex.build_adapted g ~workload:(movie_workload g) ~min_support:0.5 in
  ignore (Snapshot.commit snap apex0 : int);
  let pages_before = Repro_storage.Pager.n_pages pager in
  ignore (Snapshot.commit snap adapted : int);
  (* smash every page epoch 2 wrote (separator + image pages; the
     superblock predates both commits, so it is not in the range) *)
  for pid = pages_before to Repro_storage.Pager.n_pages pager - 1 do
    let buf = Repro_storage.Pager.unsafe_borrow pager pid in
    Bytes.set buf 0 (Char.chr (Char.code (Bytes.get buf 0) lxor 0x55))
  done;
  (* drop cached copies so the corruption is actually read back *)
  Repro_storage.Buffer_pool.flush pool;
  let recovered = Snapshot.load_latest snap g in
  Alcotest.(check bool) "fell back to epoch 1" true (extents_equal apex0 recovered);
  Alcotest.(check int) "epoch rewound" 1 (Snapshot.epoch snap);
  (* the next commit replaces the corrupt epoch's slot and moves on *)
  Alcotest.(check int) "recommit" 2 (Snapshot.commit snap adapted);
  Alcotest.(check bool) "recommitted epoch loads" true
    (extents_equal adapted (Snapshot.load_latest snap g))

let prop_roundtrip_on_dags =
  QCheck.Test.make ~count:100 ~name:"persist round-trip on random DAGs" F.arb_dag
    (fun spec ->
      let g = F.dag_of_spec spec in
      let rand = Random.State.make [| Hashtbl.hash spec + 5 |] in
      let workload =
        if G.out_degree g (G.root g) = 0 then []
        else
          List.init 4 (fun _ ->
              List.map fst (Repro_workload.Simple_paths.random_walk rand ~max_length:4 g))
      in
      QCheck.assume (workload <> []);
      let apex = Apex.build_adapted g ~workload ~min_support:0.4 in
      let _, store = with_store () in
      let loaded = Apex_persist.load g store (Apex_persist.save apex store) in
      extents_equal apex loaded)

let () =
  Alcotest.run "persist"
    [ ( "roundtrip",
        [ Alcotest.test_case "apex0" `Quick test_roundtrip_apex0;
          Alcotest.test_case "adapted" `Quick test_roundtrip_adapted;
          Alcotest.test_case "queries match" `Quick test_loaded_queries_match;
          Alcotest.test_case "refreshable after load" `Quick test_loaded_index_refreshable;
          Alcotest.test_case "multiple images" `Quick test_multiple_images_one_store;
          Alcotest.test_case "corrupt image rejected" `Quick test_corrupt_image_rejected;
          Alcotest.test_case "old APEX magic rejected" `Quick test_old_magic_rejected
        ] );
      ( "fuzz",
        [ Alcotest.test_case "of_image on mutated images" `Quick test_fuzz_of_image ] );
      ( "snapshot",
        [ Alcotest.test_case "epochs commit and load" `Quick test_snapshot_epochs;
          Alcotest.test_case "attach after restart" `Quick test_snapshot_attach_after_restart;
          Alcotest.test_case "falls back on corruption" `Quick
            test_snapshot_falls_back_on_corruption
        ] );
      ( "properties", [ QCheck_alcotest.to_alcotest prop_roundtrip_on_dags ] )
    ]
