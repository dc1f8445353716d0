(* Differential testing of incremental index maintenance.

   For each generator family (Play, Flix, Ged) and >= 100 seeds, a seeded
   interleaving of update batches and queries runs against one maintained
   APEX; after every batch its answers must be bit-identical to a
   from-scratch rebuild over the mutated graph AND to the index-free
   oracle. A refresh is interleaved mid-stream so maintenance composes
   with extraction. Two legs: a clean pager, and a pager injecting
   transient read corruption the storage layer must heal.

   UPDATE_DIFF_SEEDS=n (or a comma-separated list) overrides the seed
   count for CI sharding; the default runs seeds 1..34 per family, giving
   102 interleavings per generator family across the two legs. *)

module G = Repro_graph.Data_graph
module Query = Repro_pathexpr.Query
module Naive = Repro_pathexpr.Naive_eval
module Generate = Repro_workload.Generate
module Update_workload = Repro_workload.Update_workload
module Update = Repro_update.Update
module Dataset = Repro_datagen.Dataset
module Apex = Repro_apex.Apex
module Apex_query = Repro_apex.Apex_query
module Fault = Repro_storage.Fault
module Pager = Repro_storage.Pager
module Buffer_pool = Repro_storage.Buffer_pool

let seeds =
  match Sys.getenv_opt "UPDATE_DIFF_SEEDS" with
  | None -> List.init 34 (fun i -> i + 1)
  | Some s ->
    String.split_on_char ',' (String.trim s)
    |> List.concat_map (fun tok ->
           match int_of_string_opt (String.trim tok) with
           | Some n when n > 0 -> if String.contains s ',' then [ n ] else List.init n (fun i -> i + 1)
           | _ -> failwith (Printf.sprintf "UPDATE_DIFF_SEEDS: bad token %S" tok))

let specs = List.map (fun s -> Dataset.scaled s 0.02) Dataset.small

let checksum answers =
  (* FNV-1a over the concatenated result arrays: the acceptance criterion
     is bit-identical answers, surfaced as one comparable number *)
  List.fold_left
    (fun h arr ->
      Array.fold_left
        (fun h x ->
          let h = ref h and x = ref (x + 1) in
          for _ = 0 to 7 do
            h := (!h lxor (!x land 0xff)) * 0x01000193 land 0x3fffffffffffff;
            x := !x lsr 8
          done;
          !h)
        h arr)
    0x811c9dc5 answers

let queries_for rand g =
  Array.concat
    [ Generate.qtype1 ~n:6 rand g; Generate.qtype2 ~n:2 rand g; Generate.qtype3 ~n:3 rand g ]

(* [//a//b] where [b] tags a node of the fragment appended after [before]
   and [a] tags one of its proper ancestors *)
let fragment_q2 rand g ~before =
  let labels = G.labels g in
  let name = Repro_graph.Label.to_string labels in
  let element l = l >= 0 && not (Repro_graph.Label.is_attribute labels l) in
  let rec ancestors u acc =
    if u >= 0 && element (G.tree_label g u) then ancestors (G.tree_parent g u) (u :: acc) else acc
  in
  let candidates =
    List.filter_map
      (fun v ->
        if element (G.tree_label g v) then
          match ancestors (G.tree_parent g v) [] with
          | [] -> None
          | ancs -> Some (v, Array.of_list ancs)
        else None)
      (List.init (G.n_nodes g - before) (fun i -> before + i))
  in
  match candidates with
  | [] -> Alcotest.fail "the insert appended no element below an element"
  | _ ->
    let v, ancs = List.nth candidates (Random.State.int rand (List.length candidates)) in
    let a = ancs.(Random.State.int rand (Array.length ancs)) in
    Query.Qtype2 (name (G.tree_label g a), name (G.tree_label g v))

(* one seeded interleaving: update batch -> queries -> update batch ->
   refresh -> update batch -> queries, every round compared to a rebuild
   and the oracle *)
let run_interleaving ~fault spec seed =
  let g0 = Dataset.build_graph spec in
  let rand = Random.State.make [| spec.Dataset.seed; seed; (if fault then 1 else 0) |] in
  let workload =
    Repro_harness.Env.compile_workload g0
      (Generate.sample rand ~fraction:0.4 (Generate.qtype1 ~n:20 rand g0))
  in
  let pager = Pager.create ~page_size:4096 () in
  let fault_policy =
    if fault then begin
      let f = Fault.create ~seed:(seed * 131) () in
      Pager.set_fault pager (Some f);
      Some f
    end
    else None
  in
  let pool = Buffer_pool.create pager ~capacity:128 in
  let apex = Apex.build_adapted g0 ~workload ~min_support:0.05 in
  Apex.materialize apex pool;
  (match fault_policy with
   | Some f ->
     Fault.arm_random f ~prob:0.02 ~kinds:[ Fault.Read_flip; Fault.Short_read ]
   | None -> ());
  let compare_queries round queries =
    let g = Apex.graph apex in
    let rebuilt = Apex.build g in
    let maintained_answers = ref [] and rebuilt_answers = ref [] in
    Array.iter
      (fun q ->
        let expected = Naive.eval_query g q in
        let got = Apex_query.eval_query apex q in
        let reb = Apex_query.eval_query rebuilt q in
        maintained_answers := got :: !maintained_answers;
        rebuilt_answers := reb :: !rebuilt_answers;
        let tag engine =
          Printf.sprintf "%s seed=%d round=%d %s [%s]%s" spec.Dataset.name seed round
            (Query.to_string q) engine
            (if fault then " (faults)" else "")
        in
        Alcotest.(check (array int)) (tag "maintained") expected got;
        Alcotest.(check (array int)) (tag "rebuilt") expected reb)
      queries;
    Alcotest.(check int)
      (Printf.sprintf "%s seed=%d round=%d checksum" spec.Dataset.name seed round)
      (checksum !rebuilt_answers) (checksum !maintained_answers)
  in
  let check round = compare_queries round (queries_for rand (Apex.graph apex)) in
  let batch i n =
    let ops, _ = Update_workload.gen_ops ~seed:((seed * 7) + i) ~n (Apex.graph apex) in
    ignore (Update.apply apex ops : Update.stats)
  in
  batch 1 3;
  check 1;
  batch 2 2;
  (* refresh mid-stream: extraction must start from the maintained index *)
  Apex.refresh apex ~workload ~min_support:0.05;
  Apex.materialize apex pool;
  check 2;
  batch 3 3;
  check 3;
  (* QTYPE2 after one op of each kind. The graphs are document forests, so
     Q2 takes the tree-ancestor plan; after an insert, one more Q2 asks for
     a tag inside the fresh fragment below one of its ancestors' tags. The
     fragment's nids come after every old nid (out of document order), so
     the walk from them crosses into old nodes. *)
  List.iteri
    (fun k (p_insert, p_delete, p_ins_ref, p_del_ref) ->
      let before = G.n_nodes (Apex.graph apex) in
      let ops, _ =
        Update_workload.gen_ops ~p_insert ~p_delete ~p_ins_ref ~p_del_ref
          ~seed:((seed * 7) + 4 + k) ~n:1 (Apex.graph apex)
      in
      ignore (Update.apply apex ops : Update.stats);
      let g = Apex.graph apex in
      let round = 4 + k in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed=%d round=%d forest" spec.Dataset.name seed round)
        true (G.is_forest g);
      let fresh = if k = 0 then [| fragment_q2 rand g ~before |] else [||] in
      compare_queries round (Array.append (Generate.qtype2 ~n:2 rand g) fresh))
    [ (1., 0., 0., 0.); (0., 1., 0., 0.); (0., 0., 1., 0.); (0., 0., 0., 1.) ];
  match fault_policy with
  | Some f -> ignore (Fault.injections f : int)
  | None -> ()

let test_family spec ~fault () = List.iter (run_interleaving ~fault spec) seeds

let () =
  let cases =
    List.concat_map
      (fun spec ->
        [ Alcotest.test_case
            (Printf.sprintf "%s x%d interleavings" spec.Dataset.name (List.length seeds))
            `Slow (test_family spec ~fault:false);
          Alcotest.test_case
            (Printf.sprintf "%s x%d interleavings under read faults" spec.Dataset.name
               (List.length seeds))
            `Slow (test_family spec ~fault:true)
        ])
      specs
  in
  Alcotest.run "update-differential" [ ("maintained-vs-rebuild", cases) ]
