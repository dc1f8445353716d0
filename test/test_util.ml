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

(* --- kernels against independent list references --- *)

let model l = List.sort_uniq Int.compare l
let set_of l = Array.of_list (model l)

(* a packed edge whose parent is Edge_set.null (2^31 - 1): the largest
   parent, so the value needs all 62 bits *)
let null_parent_edge v = (((1 lsl 31) - 1) lsl 31) lor v

(* Raw int lists shaped the ways [of_unsorted]'s choices split: random,
   already ascending with repeats, strictly ascending, descending, with
   negatives, near [max_int] (six radix passes), and packed edges some of
   whose parents are null. Lengths fall below, around and above the radix
   cutoff: 128 elements for two passes, 384 for six. *)
let gen_raw =
  let open QCheck.Gen in
  let* n = oneof [ int_bound 20; int_range 200 320; int_bound 700 ] in
  let* xs = list_repeat n (int_bound 5_000) in
  let+ shape = int_bound 6 in
  match shape with
  | 0 -> xs
  | 1 -> List.sort Int.compare xs
  | 2 -> model xs
  | 3 -> List.rev (List.sort Int.compare xs)
  | 4 -> List.map (fun x -> x - 2_500) xs
  | 5 -> List.map (fun x -> max_int - (x * 1_000_003)) xs
  | _ -> List.map (fun x -> if x mod 3 = 0 then null_parent_edge x else (x lsl 31) lor (x / 7)) xs

let arb_raw = QCheck.make ~print:QCheck.Print.(list int) gen_raw

let prop_of_unsorted_model =
  QCheck.Test.make ~count:500 ~name:"of_unsorted = List.sort_uniq" arb_raw (fun l ->
      let a = Array.of_list l in
      Array.to_list (Int_sorted.of_unsorted a) = model l
      (* the input is read, never sorted in place *)
      && Array.to_list a = l)

let prop_buf_model =
  QCheck.Test.make ~count:300 ~name:"Buf.to_array = pushes, Buf.to_set = List.sort_uniq" arb_raw
    (fun l ->
      let fill () =
        let b = Int_sorted.Buf.create 1 in
        List.iter (Int_sorted.Buf.push b) l;
        b
      in
      Array.to_list (Int_sorted.Buf.to_array (fill ())) = l
      && Array.to_list (Int_sorted.Buf.to_set (fill ())) = model l)

(* Two sets from the shaped lists; one side is sometimes cut to a few
   elements so [inter] takes its galloping path. *)
let gen_set_pair =
  QCheck.Gen.(
    let* a = gen_raw and* b = gen_raw and* cut = int_bound 3 in
    let b = if cut = 0 then List.filteri (fun i _ -> i < 5) b else b in
    (* share elements so the merges meet equal keys *)
    return (set_of a, set_of (b @ List.filteri (fun i _ -> i mod 4 = 0) a)))

let prop_two_set_kernels =
  QCheck.Test.make ~count:400 ~name:"union/inter/diff/subset = list model"
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) (array int))
       gen_set_pair)
    (fun (a, b) ->
      let la = Array.to_list a and lb = Array.to_list b in
      let in_b x = List.mem x lb in
      Array.to_list (Int_sorted.union a b) = model (la @ lb)
      && Array.to_list (Int_sorted.inter a b) = List.filter in_b la
      && Array.to_list (Int_sorted.inter b a) = List.filter in_b la
      && Array.to_list (Int_sorted.inter_linear a b) = List.filter in_b la
      && Array.to_list (Int_sorted.diff a b) = List.filter (fun x -> not (in_b x)) la
      && Int_sorted.subset a b = List.for_all in_b la
      && Int_sorted.subset (Int_sorted.inter a b) a)

(* 0 to 9 sets over a narrow range, so sets repeat each other's
   elements; some are empty and k = 1 occurs *)
let gen_many_sets =
  QCheck.Gen.(
    list_size (int_bound 9)
      (map set_of
         (list_size (oneof [ return 0; int_bound 40; int_range 200 400 ]) (int_range (-50) 600))))

let prop_union_many_model =
  QCheck.Test.make ~count:300 ~name:"union_many = List.sort_uniq of concat"
    (QCheck.make ~print:QCheck.Print.(list (array int)) gen_many_sets)
    (fun sets ->
      Array.to_list (Int_sorted.union_many sets) = model (List.concat_map Array.to_list sets))

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
          QCheck_alcotest.to_alcotest prop_parray_persistent
        ] );
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [ prop_of_unsorted_model;
            prop_buf_model;
            prop_two_set_kernels;
            prop_union_many_model
          ] )
    ]
