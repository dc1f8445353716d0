module F = Test_support.Fixtures
module G = Repro_graph.Data_graph
module Query = Repro_pathexpr.Query
module Query_log = Repro_workload.Query_log
module Self_tuning = Repro_adaptive.Self_tuning

(* --- Query_log --- *)

let test_log_basics () =
  let log = Query_log.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Query_log.length log);
  Query_log.record log [ 1 ];
  Query_log.record log [ 2 ];
  Alcotest.(check int) "two entries" 2 (Query_log.length log);
  Alcotest.(check (list (list int))) "window" [ [ 1 ]; [ 2 ] ] (Query_log.to_workload log)

let test_log_window_slides () =
  let log = Query_log.create ~capacity:3 in
  List.iter (fun i -> Query_log.record log [ i ]) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "bounded" 3 (Query_log.length log);
  Alcotest.(check int) "total keeps counting" 5 (Query_log.total_recorded log);
  Alcotest.(check (list (list int))) "oldest first" [ [ 3 ]; [ 4 ]; [ 5 ] ]
    (Query_log.to_workload log)

(* what [Self_tuning.query] logs for one executed query *)
let log_query ?q2_paths log labels q =
  List.iter (Query_log.record log) (Query_log.paths_of_query ?q2_paths labels q)

let test_log_record_query () =
  let g = F.movie_db () in
  let labels = G.labels g in
  let log = Query_log.create ~capacity:10 in
  log_query log labels (Query.Qtype1 [ "actor"; "name" ]);
  log_query log labels (Query.Qtype3 ([ "title" ], "Waterworld"));
  log_query log labels (Query.Qtype2 ("movie", "title"));
  (* recorded via the minimal [movie.title] fallback *)
  log_query log labels (Query.Qtype1 [ "unknown" ]);
  (* skipped: unknown label *)
  Alcotest.(check int) "three recorded" 3 (Query_log.length log);
  (* evaluator feedback overrides the fallback: one entry — the longest
     matched rewriting; mining counts contiguous subpaths, so the nested
     shorter rewriting still accrues through it *)
  log_query ~q2_paths:[ [ 4; 5 ]; [ 1; 2; 3 ] ] log labels
    (Query.Qtype2 ("movie", "title"));
  Alcotest.(check int) "single entry per query" 4 (Query_log.length log);
  (match List.rev (Query_log.to_workload log) with
   | last :: _ -> Alcotest.(check (list int)) "longest rewriting wins" [ 1; 2; 3 ] last
   | [] -> Alcotest.fail "expected entries");
  (* an unresolvable fallback still records nothing *)
  log_query log labels (Query.Qtype2 ("movie", "unknown"));
  Alcotest.(check int) "unknown q2 skipped" 4 (Query_log.length log)

let test_log_q2_single_support () =
  (* regression: a QTYPE2 with several matched rewritings used to record
     every one, so one executed query contributed support several times
     and could promote paths no full query ever used at that rate *)
  let g = F.movie_db () in
  let labels = G.labels g in
  let log = Query_log.create ~capacity:10 in
  log_query ~q2_paths:[ [ 4; 5 ]; [ 1; 2 ] ] log labels
    (Query.Qtype2 ("movie", "title"));
  Alcotest.(check int) "exactly one entry" 1 (Query_log.length log);
  Alcotest.(check int) "one total" 1 (Query_log.total_recorded log);
  (* equal lengths: ties broken by path order, deterministically *)
  log_query ~q2_paths:[ [ 4; 5 ]; [ 1; 2 ] ] log labels
    (Query.Qtype2 ("movie", "title"));
  log_query ~q2_paths:[ [ 1; 2 ]; [ 4; 5 ] ] log labels
    (Query.Qtype2 ("movie", "title"));
  match List.rev (Query_log.to_workload log) with
  | a :: b :: _ ->
    Alcotest.(check (list int)) "order-independent tie-break" a b;
    Alcotest.(check (list int)) "smallest path wins ties" [ 1; 2 ] a
  | _ -> Alcotest.fail "expected two entries"

let test_log_clear () =
  let log = Query_log.create ~capacity:3 in
  Query_log.record log [ 1 ];
  Query_log.clear log;
  Alcotest.(check int) "cleared" 0 (Query_log.length log);
  Alcotest.(check (list (list int))) "empty window" [] (Query_log.to_workload log)

let test_log_clear_releases () =
  (* regression: [clear] used to only reset the counter, so the ring kept
     strong references to up to [capacity] label paths until they were
     overwritten — a leak for long-lived tuners. The path must be
     heap-allocated at runtime (a literal would be statically allocated
     and never collected). *)
  let log = Query_log.create ~capacity:4 in
  let w = Weak.create 1 in
  let record () =
    let path = List.init 3 (fun i -> i + 100) in
    Weak.set w 0 (Some path);
    Query_log.record log path
  in
  record ();
  Gc.full_major ();
  Alcotest.(check bool) "retained while logged" true (Weak.check w 0);
  Query_log.clear log;
  Gc.full_major ();
  Alcotest.(check bool) "released by clear" false (Weak.check w 0)

let test_log_rejects_bad_capacity () =
  match Query_log.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_log_wraparound_boundaries () =
  (* exactly at capacity: nothing lost yet *)
  let log = Query_log.create ~capacity:5 in
  List.iter (fun i -> Query_log.record log [ i ]) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "full, not wrapped" 5 (Query_log.length log);
  Alcotest.(check (list (list int))) "all present" [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ]
    (Query_log.to_workload log);
  (* capacity + 1: the single oldest entry falls off *)
  Query_log.record log [ 6 ];
  Alcotest.(check int) "still bounded" 5 (Query_log.length log);
  Alcotest.(check (list (list int))) "oldest dropped" [ [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 6 ] ]
    (Query_log.to_workload log);
  (* several full wraps: the window is exactly the last [capacity] entries,
     oldest first, and total_recorded counts everything ever seen *)
  for i = 7 to 17 do
    Query_log.record log [ i ]
  done;
  Alcotest.(check int) "total counts overwritten entries" 17 (Query_log.total_recorded log);
  Alcotest.(check (list (list int))) "window after wraps"
    [ [ 13 ]; [ 14 ]; [ 15 ]; [ 16 ]; [ 17 ] ]
    (Query_log.to_workload log)

(* --- Self_tuning --- *)

let test_adapts_to_hot_path () =
  let g = F.movie_db () in
  let st = Self_tuning.create ~refresh_every:10 ~min_support:0.5 g in
  let n0, _ = Repro_apex.Apex.stats (Self_tuning.apex st) in
  for _ = 1 to 12 do
    ignore (Self_tuning.query st (Query.Qtype1 [ "actor"; "name" ]))
  done;
  Alcotest.(check bool) "refreshed at least once" true (Self_tuning.refreshes st >= 1);
  let n1, _ = Repro_apex.Apex.stats (Self_tuning.apex st) in
  Alcotest.(check bool) "hot path got its own node" true (n1 > n0);
  (* actor.name is now a stored suffix: a direct hash hit *)
  let cost = Repro_storage.Cost.create () in
  ignore (Self_tuning.query ~cost st (Query.Qtype1 [ "actor"; "name" ]));
  Alcotest.(check int) "no joins" 0 cost.Repro_storage.Cost.join_edges

let test_results_never_change () =
  let g = F.movie_db () in
  let st = Self_tuning.create ~refresh_every:5 ~min_support:0.3 g in
  let reference = Repro_apex.Apex.build g in
  let queries =
    [ Query.Qtype1 [ "actor"; "name" ];
      Query.Qtype1 [ "name" ];
      Query.Qtype2 ("director", "title");
      Query.Qtype3 ([ "title" ], "Waterworld");
      Query.Qtype1 [ "movie"; "title" ]
    ]
  in
  for _ = 1 to 8 do
    List.iter
      (fun q ->
        Alcotest.(check (array int))
          (Query.to_string q)
          (Repro_apex.Apex_query.eval_query reference q)
          (Self_tuning.query st q))
      queries
  done

let test_workload_shift_ages_out () =
  let g = F.movie_db () in
  let st = Self_tuning.create ~log_capacity:20 ~refresh_every:20 ~min_support:0.5 g in
  (* phase 1: hot on actor.name *)
  for _ = 1 to 20 do
    ignore (Self_tuning.query st (Query.Qtype1 [ "actor"; "name" ]))
  done;
  let locate_exact path =
    match
      Repro_apex.Hash_tree.lookup_slot (Repro_apex.Apex.tree (Self_tuning.apex st))
        ~rev_path:(List.rev (F.path g path))
    with
    | Some slot -> Repro_apex.Hash_tree.slot_get slot <> None
    | None -> false
  in
  Alcotest.(check bool) "actor.name indexed" true (locate_exact [ "actor"; "name" ]);
  (* phase 2: interest moves entirely to movie.title; the window slides *)
  for _ = 1 to 20 do
    ignore (Self_tuning.query st (Query.Qtype1 [ "movie"; "title" ]))
  done;
  Alcotest.(check bool) "movie.title indexed" true (locate_exact [ "movie"; "title" ]);
  (* actor.name aged out: its lookup now lands on a shorter suffix *)
  let tree = Repro_apex.Apex.tree (Self_tuning.apex st) in
  (match
     Repro_apex.Hash_tree.locate tree ~rev_path:(List.rev (F.path g [ "actor"; "name" ]))
   with
   | Some (Repro_apex.Hash_tree.Approx _) -> ()
   | Some (Repro_apex.Hash_tree.Exact _) -> Alcotest.fail "actor.name should have aged out"
   | None -> Alcotest.fail "name label vanished")

let test_forced_refresh_counts () =
  let g = F.movie_db () in
  let st = Self_tuning.create ~refresh_every:1000 g in
  ignore (Self_tuning.query st (Query.Qtype1 [ "name" ]));
  Alcotest.(check int) "no periodic refresh yet" 0 (Self_tuning.refreshes st);
  Self_tuning.force_refresh st;
  Alcotest.(check int) "forced" 1 (Self_tuning.refreshes st)

let test_refresh_pacing () =
  (* refreshes land exactly when the policy says: every [refresh_every]
     recorded queries, so 35 queries at a 10-query window = 3 refreshes *)
  let g = F.movie_db () in
  let st = Self_tuning.create ~refresh_every:10 ~min_support:0.5 g in
  for i = 1 to 35 do
    ignore (Self_tuning.query st (Query.Qtype1 [ "actor"; "name" ]));
    let expected = i / 10 in
    Alcotest.(check int) (Printf.sprintf "refreshes after %d queries" i) expected
      (Self_tuning.refreshes st)
  done;
  Alcotest.(check int) "no aborts without faults" 0 (Self_tuning.aborted_refreshes st)

let test_forced_refresh_consumes_window () =
  (* a forced refresh mid-window resets the pacing clock: the periodic
     policy must not double-count the queries the forced refresh consumed *)
  let g = F.movie_db () in
  let st = Self_tuning.create ~refresh_every:10 ~min_support:0.5 g in
  for _ = 1 to 7 do
    ignore (Self_tuning.query st (Query.Qtype1 [ "actor"; "name" ]))
  done;
  Self_tuning.force_refresh st;
  Alcotest.(check int) "forced counts once" 1 (Self_tuning.refreshes st);
  (* 9 more queries: window is 7 + 9 = 16 since the last periodic mark, but
     only 9 since the forced one — no periodic refresh yet *)
  for _ = 1 to 9 do
    ignore (Self_tuning.query st (Query.Qtype1 [ "actor"; "name" ]))
  done;
  Alcotest.(check int) "window restarted at the forced refresh" 1 (Self_tuning.refreshes st);
  (* the 10th query since the forced refresh triggers the periodic one *)
  ignore (Self_tuning.query st (Query.Qtype1 [ "actor"; "name" ]));
  Alcotest.(check int) "periodic fires a full window later" 2 (Self_tuning.refreshes st)

let test_q2_workload_extends_index () =
  (* regression for the query log's Qtype2 drop: partial-match queries
     must feed the log (via their matched rewritings), so a Q2-heavy
     workload extends the index with the concrete paths it touches —
     here the length-3 rewriting director.movie.title *)
  let g = F.movie_db () in
  let st = Self_tuning.create ~refresh_every:8 ~min_support:0.4 g in
  let locate_rev3 () =
    Repro_apex.Hash_tree.locate
      (Repro_apex.Apex.tree (Self_tuning.apex st))
      ~rev_path:(List.rev (F.path g [ "director"; "movie"; "title" ]))
  in
  (match locate_rev3 () with
   | Some (Repro_apex.Hash_tree.Exact _) -> Alcotest.fail "APEX0 must not index length-3 paths"
   | Some (Repro_apex.Hash_tree.Approx _) | None -> ());
  let reference = Repro_apex.Apex.build g in
  let q = Query.Qtype2 ("director", "title") in
  let expected = Repro_apex.Apex_query.eval_query reference q in
  for _ = 1 to 10 do
    Alcotest.(check (array int)) "q2 answers stable" expected (Self_tuning.query st q)
  done;
  Alcotest.(check bool) "refreshed at least once" true (Self_tuning.refreshes st >= 1);
  match locate_rev3 () with
  | Some (Repro_apex.Hash_tree.Exact _) -> ()
  | Some (Repro_apex.Hash_tree.Approx _) | None ->
    Alcotest.fail "q2 rewriting director.movie.title should be indexed after refresh"

let test_update_interleaves_with_queries () =
  (* data updates through the tuner: the maintained index answers like the
     mutated document immediately, the update is counted, and the next
     periodic refresh starts from the maintained index *)
  let g = F.movie_db () in
  let st = Self_tuning.create ~refresh_every:6 ~min_support:0.4 g in
  let q = Query.Qtype1 [ "actor"; "name" ] in
  for _ = 1 to 4 do
    ignore (Self_tuning.query st q)
  done;
  let frag =
    Repro_xml.Xml_tree.element "actor"
      ~children:
        [ Repro_xml.Xml_tree.Element
            (Repro_xml.Xml_tree.element "name" ~children:[ Repro_xml.Xml_tree.Text "New" ])
        ]
  in
  Self_tuning.update st [ Repro_update.Update.Insert_subtree { parent = 0; fragment = frag } ];
  Alcotest.(check int) "update counted" 1 (Self_tuning.updates st);
  let g' = Repro_apex.Apex.graph (Self_tuning.apex st) in
  let expected = Repro_pathexpr.Naive_eval.eval_query g' q in
  Alcotest.(check (array int)) "maintained answer sees the insert" expected
    (Self_tuning.query st q);
  for _ = 1 to 6 do
    Alcotest.(check (array int)) "stable across the refresh" expected (Self_tuning.query st q)
  done;
  Alcotest.(check bool) "refreshed after the update" true (Self_tuning.refreshes st >= 1);
  Alcotest.(check int) "no aborted updates" 0 (Self_tuning.aborted_updates st)

let test_snapshot_rollback_on_faulted_refresh () =
  (* a refresh whose commit crashes rolls back to the previous epoch and
     keeps answering; the abort is visible in both counters *)
  let g = F.movie_db () in
  let pager = Repro_storage.Pager.create ~page_size:512 () in
  let fault = Repro_storage.Fault.create ~seed:11 () in
  Repro_storage.Pager.set_fault pager (Some fault);
  let pool = Repro_storage.Buffer_pool.create pager ~capacity:8 in
  let store = Repro_storage.Extent_store.create ~cache_entries:0 pool in
  let snap = Repro_apex.Apex_persist.Snapshot.create store in
  let st =
    Self_tuning.create ~refresh_every:10 ~min_support:0.5 ~pool ~snapshot:snap g
  in
  let reference = Repro_apex.Apex.build g in
  let q = Query.Qtype1 [ "actor"; "name" ] in
  let expected = Repro_apex.Apex_query.eval_query reference q in
  (* crash the next write — it will be part of the refresh's re-materialize
     or commit *)
  Repro_storage.Fault.arm_at fault Repro_storage.Fault.Torn_write ~site:0;
  for _ = 1 to 12 do
    Alcotest.(check (array int)) "answers stay correct across the abort" expected
      (Self_tuning.query st q)
  done;
  Alcotest.(check int) "abort counted" 1 (Self_tuning.aborted_refreshes st);
  Alcotest.(check int) "abort visible in io stats" 1
    (Repro_storage.Pager.stats pager).Repro_storage.Io_stats.refresh_aborts;
  Alcotest.(check int) "aborted refresh not counted as done" 0 (Self_tuning.refreshes st);
  (* the next full window retries and succeeds (the one-shot fault is gone) *)
  for _ = 1 to 10 do
    Alcotest.(check (array int)) "still correct" expected (Self_tuning.query st q)
  done;
  Alcotest.(check int) "later refresh lands" 1 (Self_tuning.refreshes st);
  Alcotest.(check int) "no further aborts" 1 (Self_tuning.aborted_refreshes st)

let () =
  Alcotest.run "adaptive"
    [ ( "query_log",
        [ Alcotest.test_case "basics" `Quick test_log_basics;
          Alcotest.test_case "window slides" `Quick test_log_window_slides;
          Alcotest.test_case "record_query" `Quick test_log_record_query;
          Alcotest.test_case "q2_single_support" `Quick test_log_q2_single_support;
          Alcotest.test_case "clear" `Quick test_log_clear;
          Alcotest.test_case "clear releases retained paths" `Quick test_log_clear_releases;
          Alcotest.test_case "bad capacity" `Quick test_log_rejects_bad_capacity;
          Alcotest.test_case "wraparound boundaries" `Quick test_log_wraparound_boundaries
        ] );
      ( "self_tuning",
        [ Alcotest.test_case "adapts to hot path" `Quick test_adapts_to_hot_path;
          Alcotest.test_case "results never change" `Quick test_results_never_change;
          Alcotest.test_case "workload shift ages out" `Quick test_workload_shift_ages_out;
          Alcotest.test_case "forced refresh" `Quick test_forced_refresh_counts;
          Alcotest.test_case "refresh pacing" `Quick test_refresh_pacing;
          Alcotest.test_case "forced refresh consumes window" `Quick
            test_forced_refresh_consumes_window;
          Alcotest.test_case "q2 workload extends the index" `Quick
            test_q2_workload_extends_index;
          Alcotest.test_case "updates interleave with queries" `Quick
            test_update_interleaves_with_queries;
          Alcotest.test_case "rollback on faulted refresh" `Quick
            test_snapshot_rollback_on_faulted_refresh
        ] )
    ]
