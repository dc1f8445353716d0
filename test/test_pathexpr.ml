open Repro_pathexpr
module F = Test_support.Fixtures
module G = Repro_graph.Data_graph

let query = Alcotest.testable Query.pp Query.equal

(* --- Label_path --- *)

let test_suffix () =
  Alcotest.(check bool) "proper suffix" true (Label_path.is_suffix ~suffix:[ 2; 3 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "itself" true (Label_path.is_suffix ~suffix:[ 1; 2 ] [ 1; 2 ]);
  Alcotest.(check bool) "not suffix" false (Label_path.is_suffix ~suffix:[ 1; 2 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "longer" false (Label_path.is_suffix ~suffix:[ 0; 1; 2 ] [ 1; 2 ]);
  Alcotest.(check bool) "empty suffix" true (Label_path.is_suffix ~suffix:[] [ 1 ])

let test_subpath () =
  Alcotest.(check bool) "middle" true (Label_path.is_subpath ~sub:[ 2; 3 ] [ 1; 2; 3; 4 ]);
  Alcotest.(check bool) "prefix" true (Label_path.is_subpath ~sub:[ 1; 2 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "suffix" true (Label_path.is_subpath ~sub:[ 3 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "not contiguous" false (Label_path.is_subpath ~sub:[ 1; 3 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "absent" false (Label_path.is_subpath ~sub:[ 9 ] [ 1; 2; 3 ])

let test_suffixes_subpaths () =
  Alcotest.(check (list (list int))) "suffixes" [ [ 1; 2; 3 ]; [ 2; 3 ]; [ 3 ] ]
    (Label_path.suffixes [ 1; 2; 3 ]);
  Alcotest.(check (list (list int)))
    "subpaths sorted"
    [ [ 1 ]; [ 1; 2 ]; [ 1; 2; 3 ]; [ 2 ]; [ 2; 3 ]; [ 3 ] ]
    (Label_path.subpaths [ 1; 2; 3 ]);
  (* repeated labels: no duplicate subpaths *)
  Alcotest.(check (list (list int))) "dedup" [ [ 1 ]; [ 1; 1 ] ] (Label_path.subpaths [ 1; 1 ])

let test_path_strings () =
  let g = F.movie_db () in
  let tbl = G.labels g in
  let p = F.path g [ "actor"; "name" ] in
  Alcotest.(check string) "to_string" "actor.name" (Label_path.to_string tbl p);
  (match Label_path.of_string tbl "actor.name" with
   | Some p' -> Alcotest.(check bool) "roundtrip" true (Label_path.equal p p')
   | None -> Alcotest.fail "of_string failed");
  Alcotest.(check bool) "unknown label" true (Label_path.of_string tbl "actor.nope" = None);
  Alcotest.(check bool) "empty component" true (Label_path.of_string tbl "actor..name" = None)

(* --- Query parsing --- *)

let parse_ok s =
  match Query.parse s with
  | Ok q -> q
  | Error m -> Alcotest.failf "parse %S failed: %s" s m

let test_parse_qtype1 () =
  Alcotest.check query "simple" (Query.Qtype1 [ "actor"; "name" ]) (parse_ok "//actor/name");
  Alcotest.check query "single" (Query.Qtype1 [ "name" ]) (parse_ok "//name");
  Alcotest.check query "deref"
    (Query.Qtype1 [ "actor"; "@movie"; "movie"; "title" ])
    (parse_ok "//actor/@movie=>movie/title");
  Alcotest.check query "deref as slash"
    (Query.Qtype1 [ "actor"; "@movie"; "movie" ])
    (parse_ok "//actor/@movie/movie")

let test_parse_qtype2 () =
  Alcotest.check query "pair" (Query.Qtype2 ("movie", "title")) (parse_ok "//movie//title")

let test_parse_qtype3 () =
  Alcotest.check query "quoted"
    (Query.Qtype3 ([ "movie"; "title" ], "Waterworld"))
    (parse_ok {|//movie/title[text()="Waterworld"]|});
  Alcotest.check query "unquoted"
    (Query.Qtype3 ([ "title" ], "Waterworld"))
    (parse_ok "//title[text()=Waterworld]")

let test_parse_errors () =
  List.iter
    (fun s ->
      match Query.parse s with
      | Error _ -> ()
      | Ok q -> Alcotest.failf "expected error on %S, got %s" s (Query.to_string q))
    [ "actor/name";       (* missing // *)
      "//";               (* no label *)
      "//a/";             (* trailing separator *)
      "//a//b//c";        (* QTYPE2 supports exactly two labels *)
      "//a//b/c";         (* mixing // and / *)
      "//a//b[text()=v]"; (* predicate on QTYPE2 *)
      "//a[text=v]";      (* malformed predicate *)
      "//a[text()=\"v]";  (* unterminated quote *)
      "//a]extra";        (* trailing garbage *)
      "//@=>b"            (* empty attribute name *)
    ]

let test_to_string_roundtrip () =
  List.iter
    (fun s ->
      let q = parse_ok s in
      Alcotest.check query (Printf.sprintf "roundtrip %s" s) q (parse_ok (Query.to_string q)))
    [ "//actor/name";
      "//movie//title";
      "//a/@m=>b/c";
      {|//movie/title[text()="Water world"]|}
    ]

let test_compile () =
  let g = F.movie_db () in
  let tbl = G.labels g in
  (match Query.compile tbl (Query.Qtype1 [ "actor"; "name" ]) with
   | Some (Query.C1 p) ->
     Alcotest.(check bool) "labels resolved" true
       (Label_path.equal p (F.path g [ "actor"; "name" ]))
   | _ -> Alcotest.fail "expected C1");
  Alcotest.(check bool) "unknown label -> None" true
    (Query.compile tbl (Query.Qtype1 [ "actor"; "salary" ]) = None);
  (match Query.compile tbl (Query.Qtype2 ("movie", "title")) with
   | Some (Query.C2 _) -> ()
   | _ -> Alcotest.fail "expected C2");
  (match Query.compile tbl (Query.Qtype3 ([ "title" ], "Waterworld")) with
   | Some (Query.C3 (_, v)) -> Alcotest.(check string) "value kept" "Waterworld" v
   | _ -> Alcotest.fail "expected C3")

(* --- Naive evaluation on the MovieDB fixture --- *)

let eval g s = Naive_eval.eval_query g (parse_ok s)

let test_naive_qtype1 () =
  let g = F.movie_db () in
  Alcotest.(check (array int)) "//actor/name" [| 2; 4 |] (eval g "//actor/name");
  Alcotest.(check (array int)) "//name" [| 2; 4; 8 |] (eval g "//name");
  Alcotest.(check (array int)) "//title" [| 7 |] (eval g "//title");
  Alcotest.(check (array int)) "//director/movie/title" [| 7 |] (eval g "//director/movie/title");
  Alcotest.(check (array int)) "//movie/@actor=>actor/name" [| 2; 4 |]
    (eval g "//movie/@actor=>actor/name");
  Alcotest.(check (array int)) "unknown label" [||] (eval g "//nothing")

let test_naive_qtype2 () =
  let g = F.movie_db () in
  (* //director//title: director's movie's title, via non-@ edges *)
  Alcotest.(check (array int)) "//director//title" [| 7 |] (eval g "//director//title");
  Alcotest.(check (array int)) "//director//name" [| 8 |] (eval g "//director//name");
  (* actor reaches movie only through @movie; closure must not cross it *)
  Alcotest.(check (array int)) "//actor//title blocked by deref" [||] (eval g "//actor//title");
  (* immediate child also matches the descendant axis *)
  Alcotest.(check (array int)) "//movie//title" [| 7 |] (eval g "//movie//title")

let test_naive_qtype3 () =
  let g = F.movie_db () in
  Alcotest.(check (array int)) "title = Waterworld" [| 7 |]
    (eval g {|//movie/title[text()="Waterworld"]|});
  Alcotest.(check (array int)) "title mismatch" [||] (eval g {|//movie/title[text()="Other"]|});
  Alcotest.(check (array int)) "//name[Kevin]" [| 2 |] (eval g {|//name[text()="Kevin"]|})

(* --- Simple paths + generators --- *)

let test_enumerate_small_tree () =
  let g = F.small_tree () in
  let paths = Repro_workload.Simple_paths.enumerate g in
  let strings =
    List.map (Label_path.to_string (G.labels g)) paths |> List.sort compare
  in
  Alcotest.(check (list string)) "all distinct root paths" [ "a"; "a.b"; "a.c" ] strings

let test_enumerate_cyclic_bounded () =
  let g = F.movie_db () in
  let paths = Repro_workload.Simple_paths.enumerate ~max_length:6 g in
  (* distinct, all valid *)
  let as_strings = List.map (Label_path.to_string (G.labels g)) paths in
  Alcotest.(check int) "no duplicates" (List.length as_strings)
    (List.length (List.sort_uniq compare as_strings));
  List.iter
    (fun p ->
      let full = Repro_graph.Edge_set.cardinal (G.reachable_by_label_path g p) in
      if full = 0 then
        Alcotest.failf "enumerated path %s has no instance"
          (Label_path.to_string (G.labels g) p))
    paths;
  Alcotest.(check bool) "length bounded" true (List.for_all (fun p -> List.length p <= 6) paths)

let test_enumerate_limit () =
  let g = F.movie_db () in
  let paths = Repro_workload.Simple_paths.enumerate ~max_length:12 ~limit:10 g in
  Alcotest.(check int) "limit respected" 10 (List.length paths)

let test_random_walk_valid () =
  let g = F.movie_db () in
  let rand = Random.State.make [| 42 |] in
  for _ = 1 to 100 do
    let steps = Repro_workload.Simple_paths.random_walk rand g in
    Alcotest.(check bool) "non-empty" true (steps <> []);
    (* the walk is a real data path from the root *)
    let ok, _ =
      List.fold_left
        (fun (ok, u) (l, v) ->
          let found = ref false in
          G.iter_out g u (fun l' v' -> if l = l' && v = v' then found := true);
          (ok && !found, v))
        (true, G.root g) steps
    in
    Alcotest.(check bool) "edges exist" true ok
  done

let test_generators_produce_valid_queries () =
  let g = F.movie_db () in
  let rand = Random.State.make [| 7 |] in
  let q1 = Repro_workload.Generate.qtype1 ~n:50 rand g in
  Array.iter
    (fun q ->
      match Query.compile (G.labels g) q with
      | Some (Query.C1 p) ->
        if Repro_graph.Edge_set.is_empty (G.reachable_by_label_path g p) then
          Alcotest.failf "QTYPE1 %s has no instance" (Query.to_string q)
      | _ -> Alcotest.failf "bad compile for %s" (Query.to_string q))
    q1;
  let q2 = Repro_workload.Generate.qtype2 ~n:20 rand g in
  Array.iter
    (fun q ->
      match q with
      | Query.Qtype2 (a, b) ->
        Alcotest.(check bool) "distinct labels" true (not (String.equal a b));
        Alcotest.(check bool) "no attribute labels" true (a.[0] <> '@' && b.[0] <> '@')
      | _ -> Alcotest.fail "expected Qtype2")
    q2;
  let q3 = Repro_workload.Generate.qtype3 ~n:20 rand g in
  Array.iter
    (fun q -> Alcotest.(check bool) "non-empty result" true (Array.length (Naive_eval.eval_query g q) > 0))
    q3

let test_sample () =
  let rand = Random.State.make [| 3 |] in
  let queries = Array.init 100 (fun i -> Query.Qtype1 [ string_of_int i ]) in
  let s = Repro_workload.Generate.sample rand ~fraction:0.2 queries in
  Alcotest.(check int) "20%" 20 (Array.length s);
  (* no duplicates *)
  let strings = Array.to_list (Array.map Query.to_string s) in
  Alcotest.(check int) "without replacement" 20 (List.length (List.sort_uniq compare strings))

let test_random_walk_rejects_childless_root () =
  let b = G.Builder.create () in
  let root = G.Builder.add_node b in
  let g = G.Builder.build ~root b in
  let rand = Random.State.make [| 1 |] in
  match Repro_workload.Simple_paths.random_walk rand g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_workload_stats () =
  let g = F.movie_db () in
  let rand = Random.State.make [| 5 |] in
  let q1 = Repro_workload.Generate.qtype1 ~n:120 rand g in
  let s = Repro_workload.Workload_stats.compute g q1 in
  Alcotest.(check int) "count" 120 s.Repro_workload.Workload_stats.queries;
  Alcotest.(check bool) "mean length sane" true
    (s.Repro_workload.Workload_stats.mean_length >= 1.0
    && s.Repro_workload.Workload_stats.mean_length <= 12.0);
  Alcotest.(check bool) "some dereferences" true
    (s.Repro_workload.Workload_stats.with_dereference > 0.0);
  (* some queries are simple path expressions, some are not *)
  Alcotest.(check bool) "root-anchored fraction in (0,1)" true
    (s.Repro_workload.Workload_stats.root_anchored > 0.0
    && s.Repro_workload.Workload_stats.root_anchored < 1.0)

let test_workload_stats_anchoring () =
  let g = F.movie_db () in
  (* hand-built sets with known anchoring *)
  let anchored = [| Repro_pathexpr.Query.Qtype1 [ "actor"; "name" ] |] in
  let s = Repro_workload.Workload_stats.compute g anchored in
  Alcotest.(check (float 1e-9)) "anchored" 1.0 s.Repro_workload.Workload_stats.root_anchored;
  let floating = [| Repro_pathexpr.Query.Qtype1 [ "name" ] |] in
  let s = Repro_workload.Workload_stats.compute g floating in
  (* 'name' is not a label of a root edge *)
  Alcotest.(check (float 1e-9)) "not anchored" 0.0 s.Repro_workload.Workload_stats.root_anchored

let test_deterministic_generation () =
  let g = F.movie_db () in
  let gen seed = Repro_workload.Generate.qtype1 ~n:25 (Random.State.make [| seed |]) g in
  Alcotest.(check bool) "same seed, same queries" true (gen 11 = gen 11);
  Alcotest.(check bool) "different seeds differ" true (gen 11 <> gen 12)

let test_escaped_value () =
  let q = Query.Qtype3 ([ "b" ], {|say "hi" \ bye|}) in
  Alcotest.(check string) "escaped" {|//b[text()="say \"hi\" \\ bye"]|} (Query.to_string q);
  Alcotest.check query "roundtrip" q (parse_ok (Query.to_string q));
  Alcotest.(check string) "text without either is unchanged" {|//b[text()="it's [x]"]|}
    (Query.to_string (Query.Qtype3 ([ "b" ], "it's [x]")));
  (* a backslash before any other character stays literal *)
  Alcotest.check query "literal backslash" (Query.Qtype3 ([ "b" ], {|C:\dir|}))
    (parse_ok {|//b[text()="C:\dir"]|})

(* --- Query.parse under QCheck --- *)

let gen_step =
  QCheck.Gen.(
    let name_char = oneofl [ 'a'; 'b'; 'z'; 'A'; '0'; '9'; '_'; '-'; ':'; '.' ] in
    let* name = string_size ~gen:name_char (int_range 1 6) in
    let+ attribute = bool in
    if attribute then "@" ^ name else name)

(* any bytes at all, with the characters the syntax gives meaning to
   drawn often *)
let gen_value =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (4, printable); (2, oneofl [ '"'; '\\'; ']'; '['; '/'; '=' ]); (1, char) ])
      (int_bound 12))

let gen_query =
  QCheck.Gen.(
    oneof
      [ map (fun steps -> Query.Qtype1 steps) (list_size (int_range 1 4) gen_step);
        map2 (fun a b -> Query.Qtype2 (a, b)) gen_step gen_step;
        map2 (fun steps v -> Query.Qtype3 (steps, v)) (list_size (int_range 1 4) gen_step) gen_value
      ])

let arb_query = QCheck.make ~print:Query.to_string gen_query

let prop_query_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"parse (to_string q) = q" arb_query (fun q ->
      match Query.parse (Query.to_string q) with
      | Ok q' -> Query.equal q q'
      | Error _ -> false)

(* a printed query with a few bytes inserted, deleted or overwritten:
   [parse] must answer, never raise *)
let gen_mutated =
  QCheck.Gen.(
    let* q = gen_query in
    let byte = oneof [ printable; oneofl [ '"'; '\\'; '['; ']'; '/'; '@'; '=' ] ] in
    let* edits = list_size (int_range 1 4) (triple (int_bound 2) nat byte) in
    return
      (List.fold_left
         (fun s (kind, at, c) ->
           let n = String.length s in
           let at = if n = 0 then 0 else at mod (n + 1) in
           match kind with
           | 0 -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
           | 1 when at < n -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
           | _ when at < n -> String.mapi (fun i x -> if i = at then c else x) s
           | _ -> String.sub s 0 (n / 2))
         (Query.to_string q) edits))

let prop_query_parse_total =
  QCheck.Test.make ~count:3000 ~name:"parse never raises on mutated input"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated)
    (fun s ->
      match Query.parse s with
      | Error _ -> true
      | Ok q ->
        (match Query.parse (Query.to_string q) with
         | Ok q' -> Query.equal q q'
         | Error _ -> false))

let () =
  Alcotest.run "pathexpr"
    [ ( "label_path",
        [ Alcotest.test_case "is_suffix" `Quick test_suffix;
          Alcotest.test_case "is_subpath" `Quick test_subpath;
          Alcotest.test_case "suffixes/subpaths" `Quick test_suffixes_subpaths;
          Alcotest.test_case "string conversion" `Quick test_path_strings
        ] );
      ( "query",
        [ Alcotest.test_case "parse QTYPE1" `Quick test_parse_qtype1;
          Alcotest.test_case "parse QTYPE2" `Quick test_parse_qtype2;
          Alcotest.test_case "parse QTYPE3" `Quick test_parse_qtype3;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "to_string roundtrip" `Quick test_to_string_roundtrip;
          Alcotest.test_case "escaped value" `Quick test_escaped_value;
          Alcotest.test_case "compile" `Quick test_compile;
          QCheck_alcotest.to_alcotest prop_query_roundtrip;
          QCheck_alcotest.to_alcotest prop_query_parse_total
        ] );
      ( "naive_eval",
        [ Alcotest.test_case "QTYPE1" `Quick test_naive_qtype1;
          Alcotest.test_case "QTYPE2" `Quick test_naive_qtype2;
          Alcotest.test_case "QTYPE3" `Quick test_naive_qtype3
        ] );
      ( "workload",
        [ Alcotest.test_case "enumerate small tree" `Quick test_enumerate_small_tree;
          Alcotest.test_case "enumerate cyclic bounded" `Quick test_enumerate_cyclic_bounded;
          Alcotest.test_case "enumerate limit" `Quick test_enumerate_limit;
          Alcotest.test_case "random walk validity" `Quick test_random_walk_valid;
          Alcotest.test_case "generators valid" `Quick test_generators_produce_valid_queries;
          Alcotest.test_case "sample" `Quick test_sample;
          Alcotest.test_case "childless root rejected" `Quick test_random_walk_rejects_childless_root;
          Alcotest.test_case "workload stats" `Quick test_workload_stats;
          Alcotest.test_case "workload stats anchoring" `Quick test_workload_stats_anchoring;
          Alcotest.test_case "deterministic" `Quick test_deterministic_generation
        ] )
    ]
