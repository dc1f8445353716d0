(* Telemetry subsystem tests.

   The load-bearing guarantee is the disabled path: instrumentation sits
   unconditionally in per-query hot loops, so with tracing off every
   entry point must be a flag test — no allocation at all. We assert
   that with [Gc.minor_words], the same way one would catch an
   accidental [Some]/closure allocation sneaking into [begin_]/[end_arg].

   The enabled path is checked end to end: ring wrap accounting, the
   Chrome export and its reader, and the schema validator run against
   the checked-in [schemas/trace_schema.json]. Histogram
   arithmetic is property-tested: merge associativity/commutativity
   modulo float [sum] (excluded by [equal_counts]) and bucket-count
   conservation. *)

module Metrics = Repro_telemetry.Metrics
module Trace = Repro_telemetry.Trace
module Export = Repro_telemetry.Export
module Slo = Repro_telemetry.Slo
module Json = Repro_telemetry.Json

(* the checked-in contracts, found from the repository root or from a
   directory one level below it (test/, or dune's _build/default/test) *)
let schema_file name =
  let rel = Filename.concat "schemas" name in
  List.find Sys.file_exists [ rel; Filename.concat ".." rel ]

let schema_path = schema_file "trace_schema.json"
let incident_schema_path = schema_file "incident_schema.json"
let lint_schema_path = schema_file "lint_report_schema.json"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let load_json path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %s: %s" path e

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
  Trace.record ~note:"b.c" Trace.Path_evicted ~a:5 ~b:0;
  Trace.record Trace.Epoch_publish ~a:7 ~b:9 (* a span kind with arg2 *);
  ignore (Trace.begin_ Trace.Refresh) (* left open: aborted lifecycle *)

let event_field event path =
  List.fold_left (fun j key -> Option.bind j (Json.member key)) (Some event) path

(* a number field of a Chrome event, 0 when absent *)
let event_int event path =
  Option.fold ~none:0 ~some:int_of_float (Option.bind (event_field event path) Json.to_float)

(* Write the live rings to a Chrome file and read it back: every record
   keeps its name, kind, seq, arg and note, and its times to well below a
   nanosecond; its event in the file carries the domain as tid, arg2 when
   non-zero and open for a span never closed. *)
let chrome_roundtrip () =
  let live = ref [] in
  Trace.iter_spans (fun s -> live := s :: !live);
  let live = List.rev !live in
  let chrome = Filename.temp_file "apex_trace" ".trace.json" in
  Export.save_chrome chrome;
  let records =
    match Export.read_trace chrome with
    | Error m -> Alcotest.failf "read_trace: %s" m
    | Ok records -> records
  in
  let events =
    Option.value ~default:[]
      (Option.bind (Json.member "traceEvents" (load_json chrome)) Json.to_list)
  in
  Sys.remove chrome;
  Alcotest.(check int) "every record read back" (List.length live) (List.length records);
  Alcotest.(check int) "every record in the file" (List.length live) (List.length events);
  List.iter2
    (fun (s : Trace.span) ((r : Export.record), event) ->
      let ctx what = Printf.sprintf "seq %d %s" s.seq what in
      Alcotest.(check string) (ctx "name") (Trace.kind_name s.kind) r.name;
      Alcotest.(check bool) (ctx "kind") s.is_event r.is_event;
      Alcotest.(check int) (ctx "seq") s.seq r.seq;
      Alcotest.(check int) (ctx "arg") s.arg r.arg;
      Alcotest.(check string) (ctx "note") s.note r.note;
      Alcotest.(check (float 1e-9)) (ctx "ts") s.start r.ts;
      Alcotest.(check (float 1e-9)) (ctx "dur")
        (match s.stop with Some stop when not s.is_event -> stop -. s.start | _ -> 0.)
        r.dur;
      Alcotest.(check int) (ctx "tid") s.domain (event_int event [ "tid" ]);
      Alcotest.(check int) (ctx "arg2") s.arg2 (event_int event [ "args"; "arg2" ]);
      Alcotest.(check bool) (ctx "open")
        ((not s.is_event) && s.stop = None)
        (event_field event [ "args"; "open" ] = Some (Json.Bool true)))
    live (List.combine records events);
  (records, events)

let export_roundtrip () =
  populate_ring ();
  let records, written = chrome_roundtrip () in
  Alcotest.(check int) "all slots exported" 11 (List.length records);
  let spans = List.filter (fun r -> not r.Export.is_event) records in
  let events = List.filter (fun r -> r.Export.is_event) records in
  Alcotest.(check int) "9 spans" 9 (List.length spans);
  Alcotest.(check int) "2 events" 2 (List.length events);
  let names = List.map (fun r -> r.Export.name) spans in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
    [ "parse"; "plan"; "probe"; "fetch"; "join"; "materialize"; "query";
      "epoch_publish"; "refresh" ];
  let noted = List.find (fun r -> r.Export.name = "path_evicted") records in
  Alcotest.(check string) "note survives" "b.c" noted.Export.note;
  Alcotest.(check int) "arg survives" 5 noted.Export.arg;
  let named n = List.find (fun e -> event_field e [ "name" ] = Some (Json.Str n)) written in
  Alcotest.(check int) "arg2 written" 9 (event_int (named "epoch_publish") [ "args"; "arg2" ]);
  Alcotest.(check bool) "open span written as open" true
    (event_field (named "refresh") [ "args"; "open" ] = Some (Json.Bool true));
  Alcotest.(check bool) "closed span written without open" true
    (event_field (named "query") [ "args"; "open" ] = None);
  (* aggregation: every closed span kind lands in summarize *)
  let hists = Export.summarize records in
  Alcotest.(check bool) "probe summarized" true
    (List.mem_assoc "probe" hists);
  Alcotest.(check (list (pair string int)))
    "event totals" [ ("path_evicted", 1); ("path_promoted", 1) ]
    (Export.event_totals records);
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
  let spans = List.filter (fun r -> not r.Export.is_event) (fst (chrome_roundtrip ())) in
  Alcotest.(check int) "3 spans" 3 (List.length spans);
  let names = List.map (fun r -> r.Export.name) spans in
  List.iter
    (fun n -> Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
    [ "epoch_publish"; "epoch_retire"; "reader_pin" ];
  Trace.reset ()

let schema_validation () =
  populate_ring ();
  let chrome = Filename.temp_file "apex_trace" ".trace.json" in
  Export.save_chrome chrome;
  (match Repro_telemetry.Schema.validate_file ~schema_path chrome with
   | Error errs -> Alcotest.failf "chrome invalid: %s" (String.concat "; " errs)
   | Ok () -> ());
  Alcotest.(check (option int)) "chrome events" (Some 11)
    (Option.map List.length
       (Option.bind (Json.member "traceEvents" (load_json chrome)) Json.to_list));
  (* the validator must actually reject garbage *)
  let bad = Filename.temp_file "apex_trace_bad" ".trace.json" in
  List.iter
    (fun doc ->
      Out_channel.with_open_text bad (fun oc -> output_string oc doc);
      match Repro_telemetry.Schema.validate_file ~schema_path bad with
      | Ok () -> Alcotest.failf "validator accepted %s" doc
      | Error _ -> ())
    [ {|{"traceEvents":[{"name":"x","ph":"X"}]}|};
      {|{"traceEvents":[{"name":"x","ph":"i","s":"t"}]}|};
      {|{"events":[]}|} ];
  Sys.remove bad;
  Sys.remove chrome;
  Trace.reset ()

(* A directory or missing file is an [Error], never an escaping
   [Sys_error] ("apexctl validate --schema schemas x.trace.json" used to
   die with an uncaught exception). *)
let unreadable_inputs_are_errors () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "apex_no_such_file.json" in
  let is_error = function Ok _ -> false | Error _ -> true in
  List.iter
    (fun path ->
      Alcotest.(check bool) ("read_trace " ^ path) true (is_error (Export.read_trace path));
      Alcotest.(check bool) ("validate_file " ^ path) true
        (is_error (Repro_telemetry.Schema.validate_file ~schema_path path));
      Alcotest.(check bool) ("validate_file schema " ^ path) true
        (is_error (Repro_telemetry.Schema.validate_file ~schema_path:path path)))
    [ Filename.dirname schema_path; missing ];
  (* a readable JSON document that is no trace, or an event missing a
     field, is an error too *)
  let bad = Filename.temp_file "apex_trace_bad" ".trace.json" in
  List.iter
    (fun doc ->
      Out_channel.with_open_text bad (fun oc -> output_string oc doc);
      Alcotest.(check bool) ("read_trace " ^ doc) true (is_error (Export.read_trace bad)))
    [ {|{"events":[]}|};
      {|{"traceEvents":[{"name":"probe","ph":"X","ts":0,"tid":0,"args":{"arg":0}}]}|} ];
  Sys.remove bad

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
  let chrome = section schema_path "chrome" in
  let event name =
    Printf.sprintf {|{"name":%s,"cat":"apex","ph":"X","ts":0,"dur":0,"pid":1,"tid":0,"args":{}}|}
      name
  in
  Alcotest.(check int) "trace record conforms" 0 (List.length (errors chrome (event {|"probe"|})));
  Alcotest.(check (list string)) "null trace field rejected"
    [ {|t: field "name" is null, expected string|} ]
    (errors chrome (event "null"));
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
  (* adjacent buckets meet with no gap: a geometric walk in steps finer
     than the narrowest bucket records into every bucket in turn, and each
     bucket's quantile estimate records back into that bucket *)
  let seen = Array.make Metrics.Histogram.n_buckets [] in
  let v = ref 1e-10 and last = ref 0 in
  while !v < 1e20 do
    let b = Metrics.Histogram.bucket_of !v in
    if b <> !last && b <> !last + 1 then
      Alcotest.failf "%g records into bucket %d right after bucket %d" !v b !last;
    seen.(b) <- !v :: seen.(b);
    last := b;
    v := !v *. 1.01
  done;
  Array.iteri
    (fun b vs ->
      if List.is_empty vs then Alcotest.failf "bucket %d: the walk records nothing into it" b;
      let est = Metrics.Histogram.quantile (of_samples vs) 0.5 in
      if Metrics.Histogram.bucket_of est <> b then
        Alcotest.failf "bucket %d: its estimate %g records into %d" b est
          (Metrics.Histogram.bucket_of est))
    seen

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

let objective name q threshold =
  { Slo.slo_name = name; slo_quantile = q; slo_threshold = threshold }

(* The whole point of the always-on kinds is staying on in production:
   their record path, and the watchdog check beside it, must not
   allocate. Same Gc.minor_words technique as the disabled-tracer test. *)
let flight_zero_alloc () =
  Trace.reset ();
  let s = Slo.create ~watchdog:1.0 [ objective "q1" 0.99 0.05 ] in
  for i = 1 to 100 do
    Trace.record Trace.Drain ~a:1 ~b:i;
    ignore (Slo.observe s 0 ~generation:1 1e-6 : bool)
  done;
  let n = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    Trace.record Trace.Drain ~a:1 ~b:i;
    Trace.end_arg (Trace.begin_ Trace.Epoch_publish) i;
    ignore (Slo.observe s 0 ~generation:i 1e-6 : bool)
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int (3 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "always-on record allocates (%.4f words/op)" per_op)
    true (per_op < 0.01);
  Alcotest.(check bool) "recorded with tracing off" false (Trace.is_enabled ());
  Alcotest.(check int) "every record counted" (n + 100)
    (List.assoc Trace.Drain (Trace.kind_counts ()));
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

let schema_section path name =
  match Json.member name (load_json path) with
  | Some j -> Repro_telemetry.Schema.shape_of_json j
  | None -> Alcotest.failf "%s: no %S section" path name

(* An incident file's records: each fact once (always-on records are
   events, the rest spans), both conforming to the committed contract's
   sections, and the span tail capped at the newest 256. *)
let flight_incident_roundtrip () =
  Trace.enable ~capacity:1024 ();
  Trace.end_arg (Trace.begin_ Trace.Epoch_publish) 2;
  for i = 1 to 300 do
    Trace.end_arg (Trace.begin_ Trace.Probe) i
  done;
  Trace.record Trace.Update_batch ~a:4 ~b:0;
  let events, spans = Export.incident_records () in
  let check section items =
    match
      Repro_telemetry.Schema.check_items
        (schema_section incident_schema_path section)
        ~ctx:section items
    with
    | [] -> ()
    | errors -> Alcotest.failf "incident %s: %s" section (String.concat "; " errors)
  in
  check "event" events;
  check "span" spans;
  let field key items = List.filter_map (fun e -> Json.member key e) items in
  Alcotest.(check (list string)) "events" [ "epoch_publish"; "update_batch" ]
    (List.filter_map Json.to_str (field "name" events));
  Alcotest.(check int) "span tail" 256 (List.length spans);
  let args = List.filter_map (Json.member "arg") (field "args" spans) in
  Alcotest.(check (list (option (float 0.)))) "newest spans, oldest first"
    [ Some 45.; Some 300. ]
    (List.map Json.to_float [ List.hd args; List.nth args 255 ]);
  Trace.reset ()

(* The incident contract lists exactly the always-on kinds' names: the
   writer's operational records, and no per-query kind that would flood
   the 1024-slot ring. *)
let incident_kinds_pinned () =
  let schema = load_json incident_schema_path in
  let kinds =
    match Option.bind (Json.member "event" schema) (Json.member "kinds") with
    | Some (Json.Arr l) -> List.filter_map Json.to_str l
    | _ -> Alcotest.fail "incident schema: no event.kinds"
  in
  Alcotest.(check (list string)) "event.kinds = always-on kind names"
    (List.map Trace.kind_name Trace.always_on_kinds)
    kinds;
  Alcotest.(check (list string)) "always-on kinds"
    [ "epoch_publish"; "epoch_retire"; "epoch_rolled_back"; "slo_breach"; "update_batch";
      "drain"; "refresh_published"; "watchdog_trip" ]
    kinds

(* ---------- SLO monitor ---------- *)

(* The introspection view of objective 0 *)
let slo_view s key =
  match Option.bind (Json.member "objectives" (Slo.to_json s)) Json.to_list with
  | Some (o :: _) -> Json.member key o
  | _ -> Alcotest.fail "to_json: no objectives"

let slo_empty_no_breach () =
  let s = Slo.create [ objective "q1" 0.99 0.01 ] in
  let st = List.hd (Slo.advance s) in
  Alcotest.(check bool) "no estimate on empty window" true (st.Slo.st_estimate = None);
  Alcotest.(check bool) "empty window never breaches" false st.Slo.st_breached;
  Alcotest.(check (float 1e-9)) "no burn" 0. st.Slo.st_burn;
  Alcotest.(check int) "nothing counted" 0 st.Slo.st_breaches

let slo_single_sample_exact () =
  let s = Slo.create [ objective "q" 0.99 0.005 ] in
  ignore (Slo.observe s 0 ~generation:1 0.004 : bool);
  Alcotest.(check bool) "to_json reports the sample" true
    (slo_view s "estimate" = Some (Json.Num 0.004));
  let st = List.hd (Slo.advance s) in
  (match st.Slo.st_estimate with
   | Some e -> Alcotest.(check (float 1e-9)) "1-sample window reports the sample" 0.004 e
   | None -> Alcotest.fail "no estimate");
  Alcotest.(check bool) "under threshold" false st.Slo.st_breached

let slo_breach_burn_and_rotation () =
  let s = Slo.create [ objective "q1" 0.5 0.001 ] in
  for _ = 1 to 100 do
    ignore (Slo.observe s 0 ~generation:1 0.1 : bool) (* two decades over the 1ms threshold *)
  done;
  let st = List.hd (Slo.advance s) in
  Alcotest.(check bool) "breached" true st.Slo.st_breached;
  Alcotest.(check int) "samples" 100 st.Slo.st_samples;
  Alcotest.(check bool) "burn rate positive" true (st.Slo.st_burn > 1.);
  Alcotest.(check int) "breach counted" 1 st.Slo.st_breaches;
  Alcotest.(check bool) "to_json: still breached" true
    (slo_view s "breached" = Some (Json.Bool true));
  Alcotest.(check bool) "to_json: breach counted" true
    (slo_view s "breaches" = Some (Json.Num 1.));
  (* rotation: the window covers the last six advances, so the samples
     stay through five further advances, age out on the sixth, and the
     objective recovers *)
  for _ = 1 to 4 do
    ignore (Slo.advance s : Slo.status list)
  done;
  Alcotest.(check bool) "still breached inside the window" true
    (List.hd (Slo.advance s)).Slo.st_breached;
  let st = List.hd (Slo.advance s) in
  Alcotest.(check bool) "window drained after rotation" true
    (st.Slo.st_estimate = None);
  Alcotest.(check bool) "breach clears" false st.Slo.st_breached;
  Alcotest.(check bool) "to_json: breach clears" true
    (slo_view s "breached" = Some (Json.Bool false))

(* The per-query latency watchdog rides on [observe]: disarmed without a
   ceiling, silent under it, and over it a counted trip recorded as an
   always-on Watchdog_trip. *)
let slo_watchdog () =
  Trace.reset ();
  let disarmed = Slo.create [ objective "q1" 0.99 0.05 ] in
  Alcotest.(check bool) "no ceiling, no trip" false
    (Slo.observe disarmed 0 ~generation:1 1.0);
  Alcotest.(check bool) "disarmed: ceiling null" true
    (Json.member "watchdog_seconds" (Slo.to_json disarmed) = Some Json.Null);
  let s = Slo.create ~watchdog:0.001 [ objective "q1" 0.99 0.05 ] in
  Alcotest.(check bool) "under the ceiling" false (Slo.observe s 0 ~generation:1 0.0005);
  Alcotest.(check bool) "over the ceiling trips" true (Slo.observe s 0 ~generation:2 0.002);
  Alcotest.(check bool) "trip counted" true
    (Json.member "watchdog_trips" (Slo.to_json s) = Some (Json.Num 1.));
  Alcotest.(check int) "trip recorded as event" 1
    (List.assoc Trace.Watchdog_trip (Trace.kind_counts ()));
  Trace.iter_spans (fun sp ->
      Alcotest.(check (pair int int)) "generation, latency ns" (2, 2_000_000)
        (sp.Trace.arg, sp.Trace.arg2));
  (match Slo.create ~watchdog:0. [] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "accepted a zero ceiling");
  Trace.reset ()

let slo_validate () =
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
          Alcotest.test_case "trace round-trip" `Quick export_roundtrip;
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
          Alcotest.test_case "incident dump validates" `Quick flight_incident_roundtrip;
          Alcotest.test_case "incident kinds pinned" `Quick incident_kinds_pinned;
        ] );
      ( "slo",
        [
          Alcotest.test_case "empty window never breaches" `Quick slo_empty_no_breach;
          Alcotest.test_case "1-sample window exact" `Quick slo_single_sample_exact;
          Alcotest.test_case "breach, burn, rotation" `Quick slo_breach_burn_and_rotation;
          Alcotest.test_case "objective validation" `Quick slo_validate;
          Alcotest.test_case "latency watchdog" `Quick slo_watchdog;
        ] );
      ( "observability_export",
        [
          Alcotest.test_case "low-count percentile rows" `Quick low_count_percentiles;
          Alcotest.test_case "gc source registered" `Quick gc_source_registered;
        ] );
    ]
