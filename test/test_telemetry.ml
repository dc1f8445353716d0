(* Telemetry subsystem tests.

   The load-bearing guarantee is the disabled path: instrumentation sits
   unconditionally in per-query hot loops, so with tracing off every
   entry point must be a flag test — no allocation at all. We assert
   that with [Gc.minor_words], the same way one would catch an
   accidental [Some]/closure allocation sneaking into [begin_]/[end_arg].

   The enabled path is checked end to end: ring wrap accounting,
   JSONL/Chrome export, the file reader, and the schema validator run
   against the checked-in [schemas/trace_schema.json]. Histogram
   arithmetic is property-tested: merge associativity/commutativity
   modulo float [sum] (excluded by [equal_counts]) and bucket-count
   conservation. *)

module Metrics = Repro_telemetry.Metrics
module Trace = Repro_telemetry.Trace
module Export = Repro_telemetry.Export
module Flight = Repro_telemetry.Flight
module Slo = Repro_telemetry.Slo
module Json = Repro_telemetry.Json

let schema_path = Filename.concat ".." (Filename.concat "schemas" "trace_schema.json")

let incident_schema_path =
  Filename.concat ".." (Filename.concat "schemas" "incident_schema.json")

let lint_schema_path = Filename.concat ".." (Filename.concat "schemas" "lint_report_schema.json")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------- disabled path: zero allocation ---------- *)

let disabled_zero_alloc () =
  Trace.reset ();
  Alcotest.(check bool) "tracer off" false (Trace.is_enabled ());
  let n = 100_000 in
  (* warm up so any one-time lazy setup is paid before measuring *)
  for _ = 1 to 100 do
    Trace.end_arg (Trace.begin_ Trace.Probe) 1
  done;
  let before = Gc.minor_words () in
  for i = 1 to n do
    let tok = Trace.begin_ Trace.Probe in
    Trace.end_arg tok i;
    let tok2 = Trace.begin_ Trace.Fetch in
    Trace.end_ tok2;
    Trace.event Trace.Path_promoted i;
    (* the serving-layer kinds sit on the reader/writer hot paths of the
       concurrent server — same zero-allocation bar *)
    Trace.end_arg (Trace.begin_ Trace.Reader_pin) i;
    Trace.end_arg (Trace.begin_ Trace.Epoch_publish) i;
    Trace.end_arg (Trace.begin_ Trace.Epoch_retire) i
  done;
  let delta = Gc.minor_words () -. before in
  let per_op = delta /. float_of_int (11 * n) in
  if per_op >= 0.01 then
    Alcotest.failf "disabled tracer allocates: %.0f minor words over %d ops"
      delta (11 * n);
  Alcotest.(check int) "begin_ returns -1 when off" (-1) (Trace.begin_ Trace.Join)

let disabled_end_is_noop () =
  Trace.reset ();
  Trace.end_ (-1);
  Trace.end_arg (-1) 42;
  let st = Trace.stats () in
  Alcotest.(check int) "nothing recorded" 0 st.Trace.recorded;
  Alcotest.(check int) "no dropped ends" 0 st.Trace.dropped_ends

(* ---------- ring accounting ---------- *)

let ring_wrap_accounting () =
  Trace.enable ~capacity:8 ();
  for i = 1 to 20 do
    Trace.end_arg (Trace.begin_ Trace.Query) i
  done;
  let st = Trace.stats () in
  Alcotest.(check int) "recorded all" 20 st.Trace.recorded;
  Alcotest.(check int) "retained = capacity" 8 st.Trace.retained;
  Alcotest.(check int) "overwritten = rest" 12 st.Trace.overwritten;
  (* per-kind totals survive the wrap *)
  Alcotest.(check int)
    "kind_counts survives wrap" 20
    (List.assoc Trace.Query (Trace.kind_counts ()));
  (match Trace.kind_histogram Trace.Query with
   | None -> Alcotest.fail "no duration histogram"
   | Some h -> Alcotest.(check int) "histogram saw every close" 20 (Metrics.Histogram.count h));
  (* retained window is oldest-first and contiguous *)
  let seqs = ref [] in
  Trace.iter_spans (fun s -> seqs := s.Trace.seq :: !seqs);
  Alcotest.(check (list int)) "oldest first" [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.rev !seqs);
  Trace.reset ()

let stale_token_dropped () =
  Trace.enable ~capacity:4 ();
  let tok = Trace.begin_ Trace.Join in
  (* wrap the ring so tok's slot is reused before the close arrives *)
  for i = 1 to 8 do
    Trace.end_arg (Trace.begin_ Trace.Query) i
  done;
  Trace.end_arg tok 7;
  let st = Trace.stats () in
  Alcotest.(check int) "stale end counted, not applied" 1 st.Trace.dropped_ends;
  Trace.reset ()

(* Two domains record concurrently, each its own span kind and instant
   kind, with the owner tagged in every arg. Each domain owns its ring, so
   nothing is lost, torn or attributed to the other's kind. (nproc may be
   2: never spawn more than two.) *)
let multi_domain_rings () =
  let k = 20_000 in
  Trace.enable ~capacity:(1 lsl 17) ();
  let work (span_kind, event_kind, tag) () =
    for i = 1 to k do
      let tok = Trace.begin_ span_kind in
      Trace.end_arg tok (tag + i);
      Trace.event event_kind (tag + i)
    done
  in
  let owners =
    [ (Trace.Probe, Trace.Path_promoted, 1_000_000);
      (Trace.Fetch, Trace.Block_skip, 2_000_000) ]
  in
  List.iter Domain.join (List.map (fun o -> Domain.spawn (work o)) owners);
  Trace.disable ();
  let counts = Trace.kind_counts () in
  List.iter
    (fun kind ->
      Alcotest.(check int) (Trace.kind_name kind ^ " count") k
        (Option.value (List.assoc_opt kind counts) ~default:0))
    [ Trace.Probe; Trace.Path_promoted; Trace.Fetch; Trace.Block_skip ];
  List.iter
    (fun (kind, h) ->
      Alcotest.(check bool) (Trace.kind_name kind ^ " is a span") false
        (Trace.kind_is_event kind);
      Alcotest.(check int) (Trace.kind_name kind ^ " durations") k
        (Metrics.Histogram.count h))
    (Trace.kind_histograms ());
  let last = ref (-1) and n = ref 0 in
  Trace.iter_spans (fun s ->
      if s.Trace.seq <= !last then
        Alcotest.failf "seq %d after %d: not unique and increasing" s.Trace.seq !last;
      last := s.Trace.seq;
      incr n;
      let span_kind, event_kind, _ =
        List.nth owners ((s.Trace.arg / 1_000_000) - 1)
      in
      let own = if s.Trace.is_event then event_kind else span_kind in
      if s.Trace.kind <> own then
        Alcotest.failf "arg %d recorded as %s" s.Trace.arg (Trace.kind_name s.Trace.kind);
      match s.Trace.stop with
      | Some stop when stop >= s.Trace.start -> ()
      | _ -> Alcotest.failf "seq %d: open or stop < start" s.Trace.seq);
  Alcotest.(check int) "every record retained" (4 * k) !n;
  Trace.reset ()

(* ---------- export round-trip + schema ---------- *)

let populate_ring () =
  Trace.enable ~capacity:64 ();
  List.iter
    (fun k ->
      let tok = Trace.begin_ k in
      Trace.end_arg tok 11)
    [ Trace.Parse; Trace.Plan; Trace.Probe; Trace.Fetch; Trace.Join;
      Trace.Materialize; Trace.Query ];
  Trace.event Trace.Path_promoted 3;
  Trace.event_note Trace.Path_evicted 5 "b.c";
  ignore (Trace.begin_ Trace.Refresh) (* left open: aborted lifecycle *)

let export_roundtrip () =
  populate_ring ();
  let jsonl = Filename.temp_file "apex_trace" ".jsonl" in
  Export.save_jsonl jsonl;
  (match Export.read_jsonl jsonl with
   | Error m -> Alcotest.failf "read_jsonl: %s" m
   | Ok records ->
     Alcotest.(check int) "all slots exported" 10 (List.length records);
     let spans = List.filter (fun r -> not r.Export.is_event) records in
     let events = List.filter (fun r -> r.Export.is_event) records in
     Alcotest.(check int) "8 spans" 8 (List.length spans);
     Alcotest.(check int) "2 events" 2 (List.length events);
     let names = List.map (fun r -> r.Export.name) spans in
     List.iter
       (fun n ->
         Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
       [ "parse"; "plan"; "probe"; "fetch"; "join"; "materialize"; "query";
         "refresh" ];
     let noted = List.find (fun r -> r.Export.name = "path_evicted") events in
     Alcotest.(check string) "note survives" "b.c" noted.Export.note;
     Alcotest.(check int) "arg survives" 5 noted.Export.arg;
     (* aggregation: every closed span kind lands in summarize *)
     let hists = Export.summarize records in
     Alcotest.(check bool) "probe summarized" true
       (List.mem_assoc "probe" hists);
     Alcotest.(check (list (pair string int)))
       "event totals" [ ("path_evicted", 1); ("path_promoted", 1) ]
       (Export.event_totals records));
  Sys.remove jsonl;
  Trace.reset ()

(* The serving-lifecycle kinds (concurrent server, lib/server) are spans —
   they carry durations for the publish/retire/pin phases — with stable
   export names that downstream tooling (apexctl stats) keys on. *)
let serving_kinds_export () =
  Trace.enable ~capacity:16 ();
  Trace.end_arg (Trace.begin_ Trace.Epoch_publish) 2;
  Trace.end_arg (Trace.begin_ Trace.Epoch_retire) 1;
  Trace.end_arg (Trace.begin_ Trace.Reader_pin) 2;
  List.iter
    (fun (k, name) ->
      Alcotest.(check string) "kind_name" name (Trace.kind_name k);
      Alcotest.(check bool) (name ^ " is a span") false (Trace.kind_is_event k))
    [ (Trace.Epoch_publish, "epoch_publish");
      (Trace.Epoch_retire, "epoch_retire");
      (Trace.Reader_pin, "reader_pin")
    ];
  let jsonl = Filename.temp_file "apex_trace" ".jsonl" in
  Export.save_jsonl jsonl;
  (match Export.read_jsonl jsonl with
   | Error m -> Alcotest.failf "read_jsonl: %s" m
   | Ok records ->
     let spans = List.filter (fun r -> not r.Export.is_event) records in
     Alcotest.(check int) "3 spans" 3 (List.length spans);
     let names = List.map (fun r -> r.Export.name) spans in
     List.iter
       (fun n -> Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
       [ "epoch_publish"; "epoch_retire"; "reader_pin" ]);
  Sys.remove jsonl;
  Trace.reset ()

let schema_validation () =
  populate_ring ();
  let jsonl = Filename.temp_file "apex_trace" ".jsonl" in
  let chrome = Filename.temp_file "apex_trace" ".trace.json" in
  Export.save_jsonl jsonl;
  Export.save_chrome chrome;
  (match Export.Schema.load schema_path with
   | Error m -> Alcotest.failf "schema load: %s" m
   | Ok schema ->
     (match Export.Schema.validate_jsonl schema jsonl with
      | Error errs -> Alcotest.failf "jsonl invalid: %s" (String.concat "; " errs)
      | Ok n -> Alcotest.(check int) "jsonl lines conform" 10 n);
     (match Export.Schema.validate_chrome schema chrome with
      | Error errs -> Alcotest.failf "chrome invalid: %s" (String.concat "; " errs)
      | Ok n -> Alcotest.(check int) "chrome events conform" 10 n);
     (* the validator must actually reject garbage *)
     let bad = Filename.temp_file "apex_trace_bad" ".jsonl" in
     let oc = open_out bad in
     output_string oc "{\"type\":\"span\",\"name\":\"x\"}\n";
     close_out oc;
     (match Export.Schema.validate_jsonl schema bad with
      | Ok _ -> Alcotest.fail "validator accepted a record missing fields"
      | Error _ -> ());
     Sys.remove bad);
  Sys.remove jsonl;
  Sys.remove chrome;
  Trace.reset ()

(* A directory or missing file is an [Error], never an escaping
   [Sys_error] ("apexctl validate --schema schemas x.jsonl" used to die
   with an uncaught exception). *)
let unreadable_inputs_are_errors () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "apex_no_such_file.json" in
  let schema =
    match Export.Schema.load schema_path with
    | Ok s -> s
    | Error m -> Alcotest.failf "schema load: %s" m
  in
  List.iter
    (fun path ->
      let is_error = function Ok _ -> false | Error _ -> true in
      Alcotest.(check bool) ("Schema.load " ^ path) true (is_error (Export.Schema.load path));
      Alcotest.(check bool) ("read_jsonl " ^ path) true (is_error (Export.read_jsonl path));
      Alcotest.(check bool) ("validate_jsonl " ^ path) true
        (is_error (Export.Schema.validate_jsonl schema path));
      Alcotest.(check bool) ("validate_chrome " ^ path) true
        (is_error (Export.Schema.validate_chrome schema path));
      Alcotest.(check bool) ("incident validate " ^ path) true
        (is_error (Flight.validate_file ~schema_path:path path)))
    [ Filename.dirname schema_path; missing ]

(* The shared validator accepts null only where a section lists the field
   as nullable: the lint report's guard fields, never a trace field. *)
let schema_nulls () =
  let section path name =
    match Result.map (Json.member name) (Json.parse_file path) with
    | Ok (Some j) -> Repro_telemetry.Schema.shape_of_json j
    | Ok None | Error _ -> Alcotest.failf "%s: no %S section" path name
  in
  let parse text = match Json.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let errors shape text = Repro_telemetry.Schema.check shape ~ctx:"t" (parse text) in
  let jsonl = section schema_path "jsonl" in
  Alcotest.(check int) "trace record conforms" 0
    (List.length
       (errors jsonl {|{"type":"span","name":"probe","seq":1,"ts":0,"dur":0,"arg":0}|}));
  Alcotest.(check (list string)) "null trace field rejected"
    [ {|t: field "name" is null, expected string|} ]
    (errors jsonl {|{"type":"span","name":null,"seq":1,"ts":0,"dur":0,"arg":0}|});
  let site = section lint_schema_path "site_item" in
  let site_json guard file =
    Printf.sprintf
      {|{"file":%s,"line":1,"col":0,"op":"<-","target":"t","fn":"f","class":"owner",
         "guard":%s,"reachable_from":[]}|}
      file guard
  in
  Alcotest.(check (list string)) "null lint guard accepted" []
    (errors site (site_json "null" {|"a.ml"|}));
  Alcotest.(check (list string)) "string lint guard accepted" []
    (errors site (site_json {|"g"|} {|"a.ml"|}));
  Alcotest.(check (list string)) "null lint file rejected"
    [ {|t: field "file" is null, expected string|} ]
    (errors site (site_json "null" "null"))

(* ---------- metrics registry ---------- *)

let registry_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "q.count" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  let c' = Metrics.counter m "q.count" in
  Metrics.incr c';
  Alcotest.(check int) "get-or-create shares state" 6 (Metrics.value c);
  let g = Metrics.gauge m "pool.fill" in
  Metrics.set g 0.75;
  (match Metrics.snapshot m with
   | [ ("pool.fill", Metrics.Level l); ("q.count", Metrics.Count n) ] ->
     Alcotest.(check (float 1e-9)) "gauge level" 0.75 l;
     Alcotest.(check int) "count" 6 n
   | _ -> Alcotest.fail "snapshot shape");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"q.count\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge m "q.count"))

let registry_sources () =
  let m = Metrics.create () in
  let hits = ref 0 in
  Metrics.register_source m "io" (fun () ->
      [ ("hits", float_of_int !hits); ("misses", 2.) ]);
  hits := 9;
  let snap = Metrics.snapshot m in
  (match List.assoc "io.hits" snap with
   | Metrics.Level l -> Alcotest.(check (float 1e-9)) "live source value" 9. l
   | _ -> Alcotest.fail "io.hits not a gauge");
  Alcotest.(check bool) "prefixed" true (List.mem_assoc "io.misses" snap)

(* ---------- histogram properties ---------- *)

let of_samples l =
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.record h) l;
  h

(* durations in seconds: zero, sub-ns, and up to ~minutes, plus negatives
   (clock went backwards) which must land in bucket 0, not crash *)
let gen_sample =
  QCheck.Gen.(
    oneof
      [
        return 0.;
        map (fun x -> x *. 1e-9) (float_bound_inclusive 10.);
        map (fun x -> x *. 1e-3) (float_bound_inclusive 10.);
        float_bound_inclusive 100.;
        map Float.neg (float_bound_inclusive 1.);
      ])

let arb_samples =
  QCheck.make
    ~print:QCheck.Print.(list float)
    QCheck.Gen.(list_size (int_bound 50) gen_sample)

let prop_merge_assoc =
  QCheck.Test.make ~count:300 ~name:"histogram merge is associative"
    (QCheck.triple arb_samples arb_samples arb_samples)
    (fun (a, b, c) ->
      let ha = of_samples a and hb = of_samples b and hc = of_samples c in
      let open Metrics.Histogram in
      equal_counts (merge (merge ha hb) hc) (merge ha (merge hb hc))
      && equal_counts (merge ha hb) (merge hb ha))

let prop_merge_sum_stable =
  (* [sum] is carried as a compensated (hi, comp) pair and merge combines
     the pairs with error-free transformations, so the merged sum must be
     *bit-identical* no matter how shards are associated or ordered — the
     guarantee that lets sharded collectors merge in whatever order their
     threads finish. Float.equal, not a tolerance. *)
  QCheck.Test.make ~count:300 ~name:"merged sum is association-invariant"
    (QCheck.triple arb_samples arb_samples arb_samples)
    (fun (a, b, c) ->
      let ha = of_samples a and hb = of_samples b and hc = of_samples c in
      let open Metrics.Histogram in
      Float.equal (sum (merge (merge ha hb) hc)) (sum (merge ha (merge hb hc)))
      && Float.equal (sum (merge ha hb)) (sum (merge hb ha)))

let test_sum_compensation () =
  (* regression: the histogram sum used to be a bare [+.] accumulator, so
     recording [1e16; 1.; -1e16] returned 0. — the 1. fell below the
     accumulator's ulp and p50/p99 reports on long mixed-magnitude runs
     drifted. The compensated pair keeps it. *)
  let h = of_samples [ 1e16; 1.; -1e16 ] in
  Alcotest.(check (float 0.0)) "small term survives" 1. (Metrics.Histogram.sum h);
  let shards = [ of_samples [ 1e16 ]; of_samples [ 1. ]; of_samples [ -1e16 ] ] in
  let merged = List.fold_left Metrics.Histogram.merge (Metrics.Histogram.create ()) shards in
  Alcotest.(check (float 0.0)) "survives sharded merge too" 1.
    (Metrics.Histogram.sum merged)

let prop_merge_is_concat =
  QCheck.Test.make ~count:300 ~name:"merge a b = histogram of a @ b"
    (QCheck.pair arb_samples arb_samples)
    (fun (a, b) ->
      Metrics.Histogram.equal_counts
        (Metrics.Histogram.merge (of_samples a) (of_samples b))
        (of_samples (a @ b)))

let prop_bucket_conservation =
  QCheck.Test.make ~count:300 ~name:"bucket counts sum to sample count"
    arb_samples
    (fun l ->
      let h = of_samples l in
      let buckets = Metrics.Histogram.bucket_counts h in
      Array.length buckets = Metrics.Histogram.n_buckets
      && Array.fold_left ( + ) 0 buckets = List.length l
      && Metrics.Histogram.count h = List.length l)

let prop_quantile_bounded =
  QCheck.Test.make ~count:300 ~name:"quantiles stay within observed range"
    arb_samples
    (fun l ->
      QCheck.assume (l <> []);
      let h = of_samples l in
      let lo = Metrics.Histogram.min_value h
      and hi = Metrics.Histogram.max_value h in
      List.for_all
        (fun q ->
          let v = Metrics.Histogram.quantile h q in
          v >= lo && v <= hi)
        [ 0.; 0.5; 0.9; 0.99; 1. ])

(* Linear sub-buckets: 5us and 7us share the octave [4096, 8192) ns, so
   at factor-2 resolution p50 and p99 collapsed onto one estimate; with
   four sub-buckets per octave they land in different buckets. *)
let quantile_resolution () =
  let h = of_samples (List.init 900 (fun _ -> 5e-6) @ List.init 100 (fun _ -> 7e-6)) in
  let p50 = Metrics.Histogram.quantile h 0.5 and p99 = Metrics.Histogram.quantile h 0.99 in
  Alcotest.(check bool) (Printf.sprintf "p50 %g < p99 %g" p50 p99) true (p50 < p99);
  List.iter
    (fun (q, v) ->
      let est = Metrics.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within 12.5%% of %g" (q *. 100.) v)
        true
        (Float.abs (est -. v) <= 0.125 *. v))
    [ (0.5, 5e-6); (0.99, 7e-6) ];
  (* each bucket's upper edge (the Prometheus le label) separates it from
     the next bucket *)
  for b = 0 to Metrics.Histogram.n_buckets - 2 do
    let edge = Metrics.Histogram.bucket_edge b in
    let below = Metrics.Histogram.bucket_of (edge *. (1. -. 1e-9))
    and above = Metrics.Histogram.bucket_of (edge *. (1. +. 1e-9)) in
    if below <> b || above <> b + 1 then
      Alcotest.failf "bucket %d: values around its edge %g record into %d and %d" b edge below above
  done

(* Every served query records latency samples on the writer's drain path:
   [record] must not allocate. Values spread over many buckets so both
   extrema and the compensated sum keep moving. *)
let histogram_record_zero_alloc () =
  let h = Metrics.Histogram.create () in
  (* a list holds its floats boxed already, as a drained observation does:
     reading one out of a float array would box it in the test itself *)
  let values = List.init 1000 (fun i -> float_of_int (1000 - i) *. 1.7e-7) in
  Metrics.Histogram.record h 1e-3;
  let rec go = function
    | [] -> ()
    | v :: tl ->
      Metrics.Histogram.record h v;
      go tl
  in
  let before = Gc.minor_words () in
  go values;
  let words = Gc.minor_words () -. before in
  if words >= 10.0 then Alcotest.failf "1000 records allocated %.0f minor words" words;
  Alcotest.(check int) "all recorded" 1001 (Metrics.Histogram.count h)

(* ---------- flight recorder ---------- *)

(* The whole point of the always-on kinds is staying on in production:
   their record path must not allocate. Same Gc.minor_words technique as
   the disabled-tracer test. *)
let flight_zero_alloc () =
  Trace.reset ();
  let f = Flight.create () in
  Flight.set_watchdog f ~threshold:1.0;
  for i = 1 to 100 do
    Trace.record Trace.Served ~a:1 ~b:i;
    ignore (Flight.check_latency f ~generation:1 ~latency_ns:i : bool)
  done;
  let n = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    Trace.record Trace.Served ~a:1 ~b:i;
    Trace.end_arg (Trace.begin_ Trace.Epoch_publish) i;
    ignore (Flight.check_latency f ~generation:i ~latency_ns:1000 : bool)
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int (3 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "always-on record allocates (%.4f words/op)" per_op)
    true (per_op < 0.01);
  Alcotest.(check bool) "recorded with tracing off" false (Trace.is_enabled ());
  Alcotest.(check int) "every record counted" (n + 100)
    (List.assoc Trace.Served (Trace.kind_counts ()));
  Trace.reset ()

let flight_ring_wrap () =
  (* a traced run sizes the rings; disabling keeps them and the
     always-on kinds keep recording into them *)
  Trace.enable ~capacity:8 ();
  Trace.disable ();
  for i = 1 to 20 do
    Trace.record Trace.Update_batch ~a:i ~b:0
  done;
  let st = Trace.stats () in
  Alcotest.(check int) "recorded" 20 st.Trace.recorded;
  Alcotest.(check int) "retained" 8 st.Trace.retained;
  Alcotest.(check int) "overwritten" 12 st.Trace.overwritten;
  (* oldest first, contiguous sequence, and only the newest 8 survive *)
  let seen = ref [] in
  Trace.iter_spans (fun s -> seen := s.Trace.arg :: !seen);
  Alcotest.(check (list int)) "newest retained oldest-first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.rev !seen);
  Alcotest.(check int) "per-kind count survives wrap" 20
    (List.assoc Trace.Update_batch (Trace.kind_counts ()));
  (* tracing off: pipeline kinds stay flag tests, nothing changes *)
  Trace.event Trace.Path_promoted 99;
  Alcotest.(check int) "traced-only kind dropped" 20 (Trace.stats ()).Trace.recorded;
  (* untraced, the always-on rings keep the default 1024 slots *)
  Trace.reset ();
  for i = 1 to Trace.default_capacity + 6 do
    Trace.record Trace.Drain ~a:i ~b:0
  done;
  Alcotest.(check int) "default capacity" 1024 (Trace.stats ()).Trace.retained;
  Trace.reset ()

let flight_watchdog () =
  Trace.reset ();
  let f = Flight.create () in
  Alcotest.(check bool) "no threshold, no trip" false
    (Flight.check_latency f ~generation:1 ~latency_ns:1_000_000_000);
  Flight.set_watchdog f ~threshold:0.001;
  Alcotest.(check bool) "under threshold" false
    (Flight.check_latency f ~generation:1 ~latency_ns:500_000);
  Alcotest.(check bool) "over threshold trips" true
    (Flight.check_latency f ~generation:2 ~latency_ns:2_000_000);
  Alcotest.(check int) "trip counted" 1 (Flight.trips f);
  Alcotest.(check int) "trip recorded as event" 1
    (List.assoc Trace.Watchdog_trip (Trace.kind_counts ()));
  Trace.reset ()

let load_json path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %s: %s" path e

(* dump -> validate against the committed contract -> parse back *)
let flight_incident_roundtrip () =
  Trace.enable ~capacity:64 ();
  let metrics = Metrics.create () in
  let c = Metrics.counter metrics "test.queries" in
  let f = Flight.create ~metrics () in
  Trace.end_arg (Trace.begin_ Trace.Epoch_publish) 2;
  Trace.end_arg (Trace.begin_ Trace.Probe) 5;
  Trace.record Trace.Served ~a:2 ~b:1500;
  Metrics.add c 7;
  let path = Filename.temp_file "apex_incident" ".json" in
  Flight.dump ~reason:"unit test" f path;
  Alcotest.(check int) "dump counted" 1 (Flight.dumps f);
  (match Flight.validate_file ~schema_path:incident_schema_path path with
   | Ok () -> ()
   | Error errors ->
     Alcotest.failf "incident file invalid: %s" (String.concat "; " errors));
  let json = load_json path in
  Sys.remove path;
  (match Option.bind (Json.member "incident" json) (Json.member "reason") with
   | Some (Json.Str "unit test") -> ()
   | _ -> Alcotest.fail "reason not preserved");
  (* each fact once: always-on records are events, the rest spans *)
  let names section key =
    match Json.member section json with
    | Some (Json.Arr l) -> List.filter_map (fun e -> Option.bind (Json.member key e) Json.to_str) l
    | _ -> Alcotest.failf "missing %s" section
  in
  Alcotest.(check (list string)) "events" [ "epoch_publish"; "served" ] (names "events" "kind");
  Alcotest.(check (list string)) "spans" [ "probe" ] (names "spans" "name");
  (* the counter bumped after the baseline snapshot must show delta 7 *)
  let deltas = match Json.member "metrics" json with Some (Json.Arr l) -> l | _ -> [] in
  let test_delta =
    List.find_opt
      (fun m -> Json.member "name" m = Some (Json.Str "test.queries"))
      deltas
  in
  (match Option.bind test_delta (Json.member "delta") with
   | Some (Json.Num d) -> Alcotest.(check (float 1e-9)) "metric delta" 7. d
   | _ -> Alcotest.fail "test.queries delta missing");
  Trace.reset ()

(* The incident contract lists exactly the always-on kinds' names. *)
let incident_kinds_pinned () =
  let schema = load_json incident_schema_path in
  let kinds =
    match Option.bind (Json.member "event" schema) (Json.member "kinds") with
    | Some (Json.Arr l) -> List.filter_map Json.to_str l
    | _ -> Alcotest.fail "incident schema: no event.kinds"
  in
  Alcotest.(check (list string)) "event.kinds = always-on kind names"
    (List.map Trace.kind_name Trace.always_on_kinds)
    kinds

(* ---------- SLO monitor ---------- *)

let objective name q threshold =
  { Slo.slo_name = name; slo_quantile = q; slo_threshold = threshold }

let slo_empty_no_breach () =
  let s = Slo.create [ objective "q1" 0.99 0.01 ] in
  let st = List.hd (Slo.advance s) in
  Alcotest.(check bool) "no estimate on empty window" true (st.Slo.st_estimate = None);
  Alcotest.(check bool) "empty window never breaches" false st.Slo.st_breached;
  Alcotest.(check (float 1e-9)) "no burn" 0. st.Slo.st_burn;
  Alcotest.(check int) "nothing counted" 0 (Slo.breach_total s)

let slo_single_sample_exact () =
  let s = Slo.create [ objective "q" 0.99 0.005 ] in
  Slo.observe s 0 0.004;
  let st = List.hd (Slo.current s) in
  (match st.Slo.st_estimate with
   | Some e -> Alcotest.(check (float 1e-9)) "1-sample window reports the sample" 0.004 e
   | None -> Alcotest.fail "no estimate");
  Alcotest.(check bool) "under threshold" false st.Slo.st_breached

let slo_breach_burn_and_rotation () =
  let s = Slo.create ~subwindows:2 [ objective "q1" 0.5 0.001 ] in
  (match Slo.index s "q1" with
   | Some 0 -> ()
   | _ -> Alcotest.fail "index by name");
  Alcotest.(check bool) "unknown name" true (Slo.index s "nope" = None);
  for _ = 1 to 100 do
    Slo.observe s 0 0.1 (* two decades over the 1ms threshold *)
  done;
  let st = List.hd (Slo.advance s) in
  Alcotest.(check bool) "breached" true st.Slo.st_breached;
  Alcotest.(check int) "samples" 100 st.Slo.st_samples;
  Alcotest.(check bool) "burn rate positive" true (st.Slo.st_burn > 1.);
  Alcotest.(check int) "breach counted" 1 (Slo.breach_total s);
  Alcotest.(check bool) "breached flag latched" true (Slo.breached s);
  (* rotation: after [subwindows] further advances the samples age out and
     the objective recovers *)
  ignore (Slo.advance s : Slo.status list);
  let st = List.hd (Slo.advance s) in
  Alcotest.(check bool) "window drained after rotation" true
    (st.Slo.st_estimate = None);
  Alcotest.(check bool) "breach clears" false (Slo.breached s)

let slo_parse_and_validate () =
  (match Slo.parse_objectives "q1:p99:0.005, q2:p99.9:0.02" with
   | Ok [ a; b ] ->
     Alcotest.(check string) "first name" "q1" a.Slo.slo_name;
     Alcotest.(check (float 1e-9)) "p99" 0.99 a.Slo.slo_quantile;
     Alcotest.(check (float 1e-9)) "p99.9" 0.999 b.Slo.slo_quantile;
     Alcotest.(check (float 1e-9)) "threshold" 0.02 b.Slo.slo_threshold
   | Ok _ -> Alcotest.fail "wrong arity"
   | Error e -> Alcotest.fail e);
  (match Slo.parse_objectives "bogus" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted a bogus spec");
  (match Slo.parse_objectives "q1:p200:0.1" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted p200");
  (match Slo.create [ objective "x" 1.5 0.1 ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "accepted quantile 1.5");
  match Slo.create [ objective "x" 0.9 0. ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted zero threshold"

(* ---------- low-count percentile handling ---------- *)

let low_count_percentiles () =
  let h0 = Metrics.Histogram.create () in
  let h1 = Metrics.Histogram.create () in
  Metrics.Histogram.record h1 0.0042;
  Alcotest.(check bool) "quantile_opt empty" true
    (Metrics.Histogram.quantile_opt h0 0.5 = None);
  (match Metrics.Histogram.quantile_opt h1 0.99 with
   | Some v -> Alcotest.(check (float 1e-12)) "single sample exact" 0.0042 v
   | None -> Alcotest.fail "quantile_opt on 1 sample");
  let table = Export.percentile_table [ ("empty", h0); ("single", h1) ] in
  (* the empty row renders "-" in every value column (0 is a legal
     latency, absent data is not); the 1-sample row reports the sample *)
  Alcotest.(check bool) "empty row dashed" true (contains table "-");
  Alcotest.(check bool) "no bogus 0ns from the empty row" false (contains table "0ns");
  Alcotest.(check bool) "single row exact" true (contains table "4.20ms")

(* ---------- GC source ---------- *)

let gc_source_registered () =
  let m = Metrics.create () in
  Metrics.register_gc m;
  let names = List.map fst (Metrics.snapshot m) in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("gc." ^ key) true (List.mem ("gc." ^ key) names))
    [ "minor_words"; "major_words"; "heap_words"; "minor_collections" ];
  (* sanity: a fresh allocation moves the minor-words gauge *)
  let level () =
    match List.assoc "gc.minor_words" (Metrics.snapshot m) with
    | Metrics.Level l -> l
    | _ -> Alcotest.fail "gc.minor_words not a gauge"
  in
  let before = level () in
  (* small boxed allocations land in the minor heap *)
  let acc = ref [] in
  for i = 1 to 1000 do
    acc := (i, float_of_int i) :: !acc
  done;
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool) "minor words advance" true (level () > before)

(* ---------- Prometheus-style exposition ---------- *)

let exposition_format () =
  let m = Metrics.create () in
  let c = Metrics.counter m "server.publishes" in
  Metrics.add c 3;
  let g = Metrics.gauge m "server.generation" in
  Metrics.set g 4.;
  let h = Metrics.histogram m "query latency (s)" in
  Metrics.Histogram.record h 0.001;
  Metrics.Histogram.record h 0.004;
  let text = Export.exposition m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains text needle))
    [ "# TYPE apex_server_publishes counter";
      "apex_server_publishes 3";
      "# TYPE apex_server_generation gauge";
      "apex_server_generation 4";
      (* names sanitized to [a-zA-Z0-9_] *)
      "# TYPE apex_query_latency__s_ histogram";
      "apex_query_latency__s__bucket{le=\"";
      "apex_query_latency__s__bucket{le=\"+Inf\"} 2";
      "apex_query_latency__s__count 2"
    ];
  (* cumulative buckets: counts along le-ordered buckets never decrease
     and end at _count *)
  let bucket_counts =
    List.filter_map
      (fun line ->
        if contains line "_bucket{le=" then
          match String.rindex_opt line ' ' with
          | Some i ->
            int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
          | None -> None
        else None)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "buckets cumulative" true
    (List.sort compare bucket_counts = bucket_counts);
  Alcotest.(check int) "last bucket is total" 2
    (List.nth bucket_counts (List.length bucket_counts - 1))

let () =
  Alcotest.run "telemetry"
    [
      ( "disabled_path",
        [
          Alcotest.test_case "zero allocation" `Quick disabled_zero_alloc;
          Alcotest.test_case "end on -1 is a no-op" `Quick disabled_end_is_noop;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wrap accounting" `Quick ring_wrap_accounting;
          Alcotest.test_case "stale token dropped" `Quick stale_token_dropped;
          Alcotest.test_case "one ring per domain" `Quick multi_domain_rings;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl round-trip" `Quick export_roundtrip;
          Alcotest.test_case "serving kinds" `Quick serving_kinds_export;
          Alcotest.test_case "schema validation" `Quick schema_validation;
          Alcotest.test_case "unreadable inputs are errors" `Quick unreadable_inputs_are_errors;
          Alcotest.test_case "schema nulls" `Quick schema_nulls;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry basics" `Quick registry_basics;
          Alcotest.test_case "live sources" `Quick registry_sources;
        ] );
      ( "histogram_properties",
        [
          QCheck_alcotest.to_alcotest prop_merge_assoc;
          QCheck_alcotest.to_alcotest prop_merge_sum_stable;
          Alcotest.test_case "compensated sum" `Quick test_sum_compensation;
          QCheck_alcotest.to_alcotest prop_merge_is_concat;
          QCheck_alcotest.to_alcotest prop_bucket_conservation;
          QCheck_alcotest.to_alcotest prop_quantile_bounded;
          Alcotest.test_case "sub-bucket quantile resolution" `Quick quantile_resolution;
          Alcotest.test_case "record is zero-alloc" `Quick histogram_record_zero_alloc;
        ] );
      ( "flight",
        [
          Alcotest.test_case "armed record is zero-alloc" `Quick flight_zero_alloc;
          Alcotest.test_case "ring wrap accounting" `Quick flight_ring_wrap;
          Alcotest.test_case "latency watchdog" `Quick flight_watchdog;
          Alcotest.test_case "incident dump validates" `Quick flight_incident_roundtrip;
          Alcotest.test_case "incident kinds pinned" `Quick incident_kinds_pinned;
        ] );
      ( "slo",
        [
          Alcotest.test_case "empty window never breaches" `Quick slo_empty_no_breach;
          Alcotest.test_case "1-sample window exact" `Quick slo_single_sample_exact;
          Alcotest.test_case "breach, burn, rotation" `Quick slo_breach_burn_and_rotation;
          Alcotest.test_case "spec parsing and validation" `Quick slo_parse_and_validate;
        ] );
      ( "observability_export",
        [
          Alcotest.test_case "low-count percentile rows" `Quick low_count_percentiles;
          Alcotest.test_case "gc source registered" `Quick gc_source_registered;
          Alcotest.test_case "prometheus exposition" `Quick exposition_format;
        ] );
    ]
