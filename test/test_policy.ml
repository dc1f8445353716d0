(* Cost-benefit adaptation policy tests.

   The unit tests drive [Policy] directly with synthetic windows where
   every signal is chosen by hand, so the promote/retain arithmetic is
   checked against numbers computed on paper: min_support 0.1 over
   100-query windows gives base 10, promote edge 13, retain edge 7
   (hysteresis 0.3, before decay — every assertion below is on ratios,
   which decay preserves).

   The differential tests drive a policy-backed [Self_tuning] end to end
   and hold its answers against the naive evaluator before, during, and
   after promotion and eviction: adaptation must only ever move cost. *)

module F = Test_support.Fixtures
module G = Repro_graph.Data_graph
module Query = Repro_pathexpr.Query
module Naive_eval = Repro_pathexpr.Naive_eval
module Policy = Repro_adaptive.Policy
module Self_tuning = Repro_adaptive.Self_tuning

let config =
  { Policy.min_support = 0.1;
    decay = 0.6;
    hysteresis = 0.3;
    cost_weight = 1.0;
    cost_scale = 1.0
  }

let e_path = [ 1; 2 ] (* expensive: 10 page-equivalents per query *)
let c_path = [ 3; 4 ] (* cheap: 0.2 page-equivalents per query *)
let b_path = [ 5; 6 ] (* boundary: expensive but under the support bar *)
let filler = [ 9 ] (* length-1: APEX0-required, never a candidate *)

(* one window: [specs] = (path, queries, extent_pages, extent_edges) —
   padded with filler queries to exactly [total] so support levels are
   absolute fractions, like the drift workloads *)
let window ?(total = 100) t specs =
  let used = ref 0 in
  List.iter
    (fun (p, n, pages, edges) ->
      used := !used + n;
      for _ = 1 to n do
        Policy.observe t ~paths:[ p ] ~extent_pages:pages ~extent_edges:edges
          ~join_edges:0
      done)
    specs;
  for _ = 1 to total - !used do
    Policy.observe t ~paths:[ filler ] ~extent_pages:0 ~extent_edges:0
      ~join_edges:0
  done

let refresh t =
  let plan = Policy.plan t in
  Policy.commit t plan;
  plan

let test_promotes_expensive_rejects_cheap () =
  let t = Policy.create ~config () in
  (* E and C both at 2x the support threshold; B at 0.9x. E streams 10
     pages a query, C a fifth of a page. *)
  window t [ (e_path, 20, 10, 0); (c_path, 20, 0, 100); (b_path, 9, 10, 0) ];
  let plan = refresh t in
  Alcotest.(check (list (list int))) "only the expensive path promoted"
    [ e_path ] (Policy.promotions plan);
  Alcotest.(check (list (list int))) "nothing evicted" [] (Policy.evictions plan);
  Alcotest.(check bool) "decide keeps E" true
    (Policy.decide plan ~path:e_path ~count:0 ~is_new:false);
  Alcotest.(check bool) "decide drops the cheap-frequent path" false
    (Policy.decide plan ~path:c_path ~count:0 ~is_new:false);
  Alcotest.(check bool) "decide drops the boundary path" false
    (Policy.decide plan ~path:b_path ~count:0 ~is_new:false);
  Alcotest.(check bool) "length-1 always required" true
    (Policy.decide plan ~path:filler ~count:0 ~is_new:true);
  Alcotest.(check (list (list int))) "indexed set adopted" [ e_path ]
    (Policy.indexed_paths t);
  (* the cheap path's score is support * rel_cost = 20 * 0.2 = 4, far
     under the promote edge even though its support clears it *)
  Alcotest.(check bool) "cheap score under the edge" true (Policy.score t c_path < 13.)

let test_hysteresis_no_flap () =
  let t = Policy.create ~config () in
  (* promote E at 2x, with B already straddling the threshold *)
  window t [ (e_path, 20, 10, 0); (b_path, 9, 10, 0) ];
  let plan = refresh t in
  Alcotest.(check (list (list int))) "E promoted once" [ e_path ]
    (Policy.promotions plan);
  (* eight windows where E's support oscillates +-5% around the raw
     threshold (inside the band) and B straddles it from below: support-
     only mining flips both on nearly every window; the band holds E in
     and B out with zero state changes *)
  for i = 1 to 8 do
    let e_n = if i mod 2 = 0 then 11 else 9 in
    let b_n = if i mod 2 = 0 then 9 else 11 in
    window t [ (e_path, e_n, 10, 0); (b_path, b_n, 10, 0) ];
    let plan = refresh t in
    Alcotest.(check (list (list int))) "no promotions while oscillating" []
      (Policy.promotions plan);
    Alcotest.(check (list (list int))) "no evictions while oscillating" []
      (Policy.evictions plan);
    Alcotest.(check int) "last_changes reports converged" 0 (Policy.last_changes t)
  done;
  Alcotest.(check (list (list int))) "E still indexed" [ e_path ]
    (Policy.indexed_paths t);
  Alcotest.(check int) "exactly one promotion ever" 1 (Policy.total_promotions t);
  Alcotest.(check int) "no evictions ever" 0 (Policy.total_evictions t)

let test_cooling_path_evicted_once () =
  let t = Policy.create ~config () in
  window t [ (e_path, 20, 10, 0) ];
  ignore (refresh t);
  Alcotest.(check (list (list int))) "promoted" [ e_path ] (Policy.indexed_paths t);
  (* E's traffic stops entirely; its decayed support halves-ish per
     refresh and must cross the retain edge exactly once — and, because
     promotion is support-gated too, its still-large cost factor must not
     pull it back in on the next refresh (the flap this PR fixes) *)
  let eviction_rounds = ref [] in
  for i = 1 to 6 do
    window t [];
    let plan = refresh t in
    if Policy.evictions plan <> [] then eviction_rounds := i :: !eviction_rounds;
    Alcotest.(check (list (list int))) "never re-promoted" []
      (Policy.promotions plan)
  done;
  (match !eviction_rounds with
   | [ _ ] -> ()
   | rounds ->
     Alcotest.failf "expected exactly one eviction round, got %d"
       (List.length rounds));
  Alcotest.(check (list (list int))) "index empty after cooling" []
    (Policy.indexed_paths t);
  Alcotest.(check int) "one eviction total" 1 (Policy.total_evictions t)

let test_keep_set_subpath_closed () =
  let t = Policy.create ~config () in
  let long = [ 1; 2; 3 ] in
  window t [ (long, 20, 10, 0) ];
  let plan = refresh t in
  let kept = List.sort compare (Policy.keep_paths plan) in
  (* the long path's contiguous length-2 subpaths ride along even though
     no query hit them at promote level on their own *)
  Alcotest.(check (list (list int))) "closed under contiguous subpaths"
    [ [ 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3 ] ] kept

(* --- differential: adaptation only moves cost, never answers --- *)

let check_query g tuner q =
  let got = Self_tuning.query tuner q in
  let want = Naive_eval.eval_query g q in
  let sort a = List.sort Int.compare (Array.to_list a) in
  Alcotest.(check (list int)) "matches naive oracle" (sort want) (sort got)

let policy_exn tuner =
  match Self_tuning.policy tuner with
  | Some p -> p
  | None -> Alcotest.fail "tuner should carry the policy"

let test_eviction_differential () =
  let g = F.movie_db () in
  (* cost_weight 0: a toy in-memory graph measures near-zero per-query
     cost, which the score gate would (correctly) never promote; this
     test targets eviction correctness, so degenerate to support +
     hysteresis and let the server-feedback test below exercise the
     cost-weighted gate with explicit measurements *)
  let policy = Policy.create ~config:{ config with Policy.cost_weight = 0. } () in
  let tuner =
    Self_tuning.create ~log_capacity:40 ~min_support:0.1 ~refresh_every:40
      ~policy g
  in
  let hot = Query.Qtype1 [ "actor"; "name" ] in
  let hot_path = F.path g [ "actor"; "name" ] in
  let background =
    [ Query.Qtype1 [ "movie"; "title" ]; Query.Qtype1 [ "director" ];
      Query.Qtype3 ([ "name" ], "Kevin"); Query.Qtype2 ("movie", "title") ]
  in
  (* phase A: the hot path at 50% of traffic — promoted *)
  for i = 1 to 120 do
    if i mod 2 = 0 then check_query g tuner hot
    else check_query g tuner (List.nth background (i mod 4))
  done;
  Alcotest.(check bool) "hot path promoted" true
    (List.mem hot_path (Policy.indexed_paths (policy_exn tuner)));
  (* phase B: the hot path's traffic stops; answers must stay correct
     through the eviction and after it *)
  for i = 1 to 240 do
    check_query g tuner (List.nth background (i mod 4))
  done;
  Alcotest.(check bool) "hot path evicted after cooling" false
    (List.mem hot_path (Policy.indexed_paths (policy_exn tuner)));
  Alcotest.(check bool) "at least one eviction committed" true
    (Policy.total_evictions (policy_exn tuner) >= 1);
  (* and the evicted path still answers correctly as an approximate hit *)
  check_query g tuner hot

let test_server_feedback_reaches_policy () =
  (* the serving path: readers evaluate elsewhere and report through
     record_external — the policy must see those signals too *)
  let g = F.movie_db () in
  let policy = Policy.create ~config () in
  let tuner =
    Self_tuning.create ~log_capacity:40 ~min_support:0.1 ~refresh_every:40
      ~policy g
  in
  let hot = Query.Qtype1 [ "actor"; "name" ] in
  for _ = 1 to 20 do
    Self_tuning.record_external tuner ~extent_pages:10 hot
  done;
  for _ = 1 to 20 do
    Self_tuning.record_external tuner ~extent_pages:0
      (Query.Qtype1 [ "director" ])
  done;
  Alcotest.(check bool) "window full" true (Self_tuning.due_for_refresh tuner);
  Self_tuning.force_refresh tuner;
  Alcotest.(check bool) "externally-observed path promoted" true
    (List.mem (F.path g [ "actor"; "name" ])
       (Policy.indexed_paths (policy_exn tuner)))

let test_config_validation () =
  let bad h = { config with Policy.hysteresis = h } in
  Alcotest.check_raises "hysteresis >= 1 rejected"
    (Invalid_argument "Policy.create: hysteresis must be in [0, 1)") (fun () ->
      ignore (Policy.create ~config:(bad 1.0) ()));
  Alcotest.check_raises "non-positive min_support rejected"
    (Invalid_argument "Policy.create: min_support must be positive") (fun () ->
      ignore
        (Policy.create ~config:{ config with Policy.min_support = 0. } ()))

(* --- the decayed table the policy scores from ---

   Observed through the public API: under [cost_weight = 0] a path's
   score is its decayed support, under [cost_weight = 1] (scale 1) it is
   the larger of its decayed cost and 0.01 x its decayed support, and
   [observed_queries] is the decayed query total. Keys are length-1
   paths, their own only subpath. *)

module Cost = Repro_storage.Cost

(* costs are small integers, so window sums are exact and the properties
   below only tolerate the decay multiplications *)
let arb_observations =
  QCheck.(
    make
      ~print:Print.(list (pair int int))
      Gen.(list_size (int_range 1 40) (pair (int_bound 7) (int_bound 100))))

let approx a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs b)

(* one policy per cost weight, fed the same stream and rolled together *)
let policies ~decay obs =
  List.map
    (fun cost_weight ->
      let t = Policy.create ~config:{ config with Policy.decay; cost_weight } () in
      List.iter
        (fun (k, pages) ->
          Policy.observe t ~paths:[ [ k ] ] ~extent_pages:pages ~extent_edges:0 ~join_edges:0)
        obs;
      t)
    [ 0.; 1. ]

let roll ts = List.iter (fun t -> ignore (Policy.plan t : Policy.plan)) ts
let keys_of obs = List.sort_uniq compare (List.map (fun (k, _) -> [ k ]) obs)

let prop_decay_monotone =
  let arb =
    QCheck.(
      pair
        (make ~print:string_of_float Gen.(oneofl [ 0.; 0.25; 0.5; 0.9 ]))
        arb_observations)
  in
  QCheck.Test.make ~count:100 ~name:"empty rolls decay stats geometrically" arb
    (fun (decay, obs) ->
      let ts = policies ~decay obs in
      roll ts;
      let before = List.map (fun t -> (t, List.map (Policy.score t) (keys_of obs))) ts in
      let q0 = List.map Policy.observed_queries ts in
      roll ts;
      roll ts;
      let expect = decay *. decay in
      let ok (t, scores) =
        List.for_all2
          (fun k s ->
            let s' = Policy.score t k in
            (* monotone: neither signal grows across an empty window *)
            approx s' (expect *. s) && s' <= s +. 1e-9)
          (keys_of obs) scores
      in
      List.for_all2 (fun t q -> approx (Policy.observed_queries t) (expect *. q)) ts q0
      && List.for_all ok before)

let prop_window_order_invariant =
  QCheck.Test.make ~count:100 ~name:"window stats are order-invariant"
    arb_observations (fun obs ->
      let a = policies ~decay:0.5 obs and b = policies ~decay:0.5 (List.rev obs) in
      roll a;
      roll b;
      List.for_all2
        (fun ta tb ->
          approx (Policy.observed_queries ta) (Policy.observed_queries tb)
          && List.for_all
               (fun k -> approx (Policy.score ta k) (Policy.score tb k))
               (keys_of obs))
        a b)

(* [Policy.unit_cost] must stay the restriction of [Cost.weighted_total]
   to the three counters the feedback channel carries — the policy's
   page-equivalents are directly comparable to benchmark cost curves *)
let test_unit_cost_matches_weighted_total () =
  List.iter
    (fun (pages, ee, je) ->
      let c = Cost.create () in
      c.Cost.extent_pages <- pages;
      c.Cost.extent_edges <- ee;
      c.Cost.join_edges <- je;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pages=%d ee=%d je=%d" pages ee je)
        (Cost.weighted_total c)
        (Policy.unit_cost ~extent_pages:pages ~extent_edges:ee ~join_edges:je))
    [ (0, 0, 0); (1, 0, 0); (0, 500, 0); (0, 0, 500); (3, 250, 750);
      (17, 9999, 1234) ]

let () =
  Alcotest.run "policy"
    [ ( "scoring",
        [ Alcotest.test_case "promote expensive, reject cheap" `Quick
            test_promotes_expensive_rejects_cheap;
          Alcotest.test_case "keep set subpath-closed" `Quick
            test_keep_set_subpath_closed;
          Alcotest.test_case "config validation" `Quick test_config_validation
        ] );
      ( "hysteresis",
        [ Alcotest.test_case "no flap at the boundary" `Quick
            test_hysteresis_no_flap;
          Alcotest.test_case "cooling path evicted exactly once" `Quick
            test_cooling_path_evicted_once
        ] );
      ( "differential",
        [ Alcotest.test_case "answers exact through evict" `Quick
            test_eviction_differential;
          Alcotest.test_case "server feedback reaches policy" `Quick
            test_server_feedback_reaches_policy
        ] );
      ( "attribution",
        [ QCheck_alcotest.to_alcotest prop_decay_monotone;
          QCheck_alcotest.to_alcotest prop_window_order_invariant;
          Alcotest.test_case "unit cost matches weighted total" `Quick
            test_unit_cost_matches_weighted_total
        ] )
    ]
