open Repro_util

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" (99 * 99) (Vec.get v 99)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec: index 1 out of bounds (length 1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative index" (Invalid_argument "Vec: index -1 out of bounds (length 1)")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_set () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Vec.set v 1 42;
  Alcotest.(check (array int)) "after set" [| 1; 42; 3 |] (Vec.to_array v)

let test_vec_clear () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Vec.clear v;
  Alcotest.(check int) "empty after clear" 0 (Vec.length v);
  Vec.push v 7;
  Alcotest.(check (array int)) "reusable" [| 7 |] (Vec.to_array v)

let test_vec_iteri_fold () =
  let v = Vec.of_array [| 10; 20; 30 |] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (2, 30); (1, 20); (0, 10) ] !acc;
  Alcotest.(check int) "fold" 60 (Vec.fold_left ( + ) 0 v)

(* --- Int_sorted --- *)

let test_of_unsorted () =
  Alcotest.(check (array int)) "dedup+sort" [| 1; 2; 5; 9 |]
    (Int_sorted.of_unsorted [| 5; 1; 9; 2; 5; 1 |]);
  Alcotest.(check (array int)) "empty" [||] (Int_sorted.of_unsorted [||])

let test_mem () =
  let a = [| 1; 3; 5; 7; 11 |] in
  List.iter (fun x -> Alcotest.(check bool) (string_of_int x) true (Int_sorted.mem a x)) [ 1; 5; 11 ];
  List.iter (fun x -> Alcotest.(check bool) (string_of_int x) false (Int_sorted.mem a x)) [ 0; 2; 12 ]

let test_set_ops () =
  let a = [| 1; 2; 3; 5 |] and b = [| 2; 4; 5; 6 |] in
  Alcotest.(check (array int)) "union" [| 1; 2; 3; 4; 5; 6 |] (Int_sorted.union a b);
  Alcotest.(check (array int)) "inter" [| 2; 5 |] (Int_sorted.inter a b);
  Alcotest.(check (array int)) "diff" [| 1; 3 |] (Int_sorted.diff a b);
  Alcotest.(check bool) "subset yes" true (Int_sorted.subset [| 2; 5 |] b);
  Alcotest.(check bool) "subset no" false (Int_sorted.subset a b)

let test_union_many () =
  Alcotest.(check (array int)) "3-way" [| 1; 2; 3; 4 |]
    (Int_sorted.union_many [ [| 1; 3 |]; [| 2 |]; [| 3; 4 |] ]);
  Alcotest.(check (array int)) "none" [||] (Int_sorted.union_many []);
  Alcotest.(check (array int)) "single" [| 7 |] (Int_sorted.union_many [ [| 7 |] ])

let gen_set = QCheck.Gen.(map Repro_util.Int_sorted.of_unsorted (array_size (int_bound 40) (int_bound 60)))
let arb_set = QCheck.make ~print:(fun a -> QCheck.Print.(array int) a) gen_set

(* adversarial size skew: a handful of probes against thousands of elements,
   the regime where [inter] switches to galloping *)
let gen_skewed_pair =
  QCheck.Gen.(
    pair
      (map Int_sorted.of_unsorted (array_size (int_bound 12) (int_bound 100_000)))
      (map Int_sorted.of_unsorted (array_size (return 4_000) (int_bound 100_000))))

let arb_skewed_pair =
  QCheck.make
    ~print:(fun (a, b) -> QCheck.Print.(pair (array int) (array int)) (a, b))
    gen_skewed_pair

let prop_ops_agree_with_lists =
  QCheck.Test.make ~count:300 ~name:"set ops agree with list model" (QCheck.pair arb_set arb_set)
    (fun (a, b) ->
      let la = Array.to_list a and lb = Array.to_list b in
      let model_union = List.sort_uniq compare (la @ lb) in
      let model_inter = List.filter (fun x -> List.mem x lb) la in
      let model_diff = List.filter (fun x -> not (List.mem x lb)) la in
      Array.to_list (Int_sorted.union a b) = model_union
      && Array.to_list (Int_sorted.inter a b) = model_inter
      && Array.to_list (Int_sorted.diff a b) = model_diff)

let prop_results_sorted =
  QCheck.Test.make ~count:300 ~name:"set ops preserve invariant" (QCheck.pair arb_set arb_set)
    (fun (a, b) ->
      Int_sorted.is_sorted_set (Int_sorted.union a b)
      && Int_sorted.is_sorted_set (Int_sorted.inter a b)
      && Int_sorted.is_sorted_set (Int_sorted.diff a b))

let prop_gallop_inter_agrees =
  QCheck.Test.make ~count:100 ~name:"gallop inter = linear inter on skewed sizes"
    arb_skewed_pair
    (fun (small, large) ->
      Int_sorted.equal (Int_sorted.inter small large) (Int_sorted.inter_linear small large)
      && Int_sorted.equal (Int_sorted.inter large small) (Int_sorted.inter_linear large small)
      (* force some overlap too: intersecting with a superset must be identity *)
      && Int_sorted.equal (Int_sorted.inter small (Int_sorted.union small large)) small)

let prop_lower_bound_agrees =
  QCheck.Test.make ~count:300 ~name:"gallop_lower_bound = lower_bound"
    (QCheck.pair arb_set QCheck.(int_bound 70))
    (fun (a, x) ->
      let n = Array.length a in
      Int_sorted.gallop_lower_bound a 0 n x = Int_sorted.lower_bound a 0 n x
      && (n = 0
          || Int_sorted.gallop_lower_bound a (n / 2) n x = Int_sorted.lower_bound a (n / 2) n x))

let prop_mem_batch_agrees =
  QCheck.Test.make ~count:100 ~name:"mem_batch = pointwise mem" arb_skewed_pair
    (fun (queries, a) ->
      let batch = Int_sorted.mem_batch a queries in
      Array.length batch = Array.length queries
      && Array.for_all2 (fun r q -> r = Int_sorted.mem a q) batch queries)

let gen_many =
  QCheck.Gen.(list_size (int_bound 9) (map Int_sorted.of_unsorted (array_size (int_bound 300) (int_bound 2_000))))

let prop_union_many_agrees =
  QCheck.Test.make ~count:100 ~name:"k-way union_many = pairwise reference"
    (QCheck.make ~print:QCheck.Print.(list (array int)) gen_many)
    (fun sets ->
      let kway = Int_sorted.union_many sets in
      Int_sorted.is_sorted_set kway
      && Int_sorted.equal kway (Int_sorted.union_many_pairwise sets)
      && Int_sorted.equal kway (List.fold_left Int_sorted.union [||] sets))

(* Parray against a model of plain arrays: every version reads as its own
   model, including every older version after later updates (nothing is
   written into an array a version holds), and out-of-range reads raise. *)
let prop_parray_persistent =
  let open QCheck in
  let step = pair (int_bound 300) (small_list (pair small_nat small_nat)) in
  Test.make ~count:200 ~name:"parray versions stay their models" (pair (int_bound 700) (small_list step))
    (fun (n0, steps) ->
      let module P = Repro_util.Parray in
      let v0 = Array.init n0 (fun i -> i) in
      let versions = ref [ (P.of_array v0, v0) ] in
      List.iter
        (fun (grow, sets) ->
          match !versions with
          | [] -> ()
          | (p, m) :: _ ->
            let length = Array.length m + grow in
            let sets = if length = 0 then [] else List.map (fun (i, x) -> (i mod length, -x)) sets in
            let m' = Array.init length (fun i -> if i < Array.length m then m.(i) else -1) in
            List.iter (fun (i, x) -> m'.(i) <- x) sets;
            versions := (P.update p ~length ~fill:(-1) sets, m') :: !versions)
        steps;
      List.for_all
        (fun (p, m) ->
          P.length p = Array.length m
          && Array.for_all Fun.id (Array.mapi (fun i x -> P.get p i = x) m)
          && (match P.get p (Array.length m) with _ -> false | exception Invalid_argument _ -> true)
          && (match P.get p (-1) with _ -> false | exception Invalid_argument _ -> true))
        !versions)

let () =
  Alcotest.run "util"
    [ ( "vec",
        [ Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds checks" `Quick test_vec_bounds;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "clear" `Quick test_vec_clear;
          Alcotest.test_case "iteri/fold" `Quick test_vec_iteri_fold
        ] );
      ( "int_sorted",
        [ Alcotest.test_case "of_unsorted" `Quick test_of_unsorted;
          Alcotest.test_case "mem" `Quick test_mem;
          Alcotest.test_case "union/inter/diff/subset" `Quick test_set_ops;
          Alcotest.test_case "union_many" `Quick test_union_many
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_ops_agree_with_lists;
          QCheck_alcotest.to_alcotest prop_results_sorted;
          QCheck_alcotest.to_alcotest prop_gallop_inter_agrees;
          QCheck_alcotest.to_alcotest prop_lower_bound_agrees;
          QCheck_alcotest.to_alcotest prop_mem_batch_agrees;
          QCheck_alcotest.to_alcotest prop_union_many_agrees;
          QCheck_alcotest.to_alcotest prop_parray_persistent
        ] )
    ]
