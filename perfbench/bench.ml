(* The repository benchmark.

   Three workloads, each driven from one process through the calls a user
   of the library makes: XML text in, query strings in, update batches in.
   The seed drives the query streams, the mining sample, the shuffle and
   the update ops; the documents are the named datasets.

   - lookup-graph: Ged02 (irregular, recursive, IDREF-rich), shuffled mixes
     of QTYPE1/2/3 in the paper's 5000:500:1000 ratio against a materialized
     APEX(0.005) in a 1024 x 8 KB buffer pool that holds the whole index.
     Closed loop, one client, for --seconds.
   - lookup-tree: shakes_11 (tree-shaped, text-heavy), the same protocol
     with a 64-page pool, smaller than the data table.
   - serve-update: Ged02 behind [Server] with the cost policy. One reader
     domain runs a closed loop over 5:1 QTYPE1/QTYPE3 mixes, 800 queries a
     batch; between its batches the calling domain drains feedback, applies
     a 4-op update batch and publishes, and forces a refresh every 5
     batches. The reader parks while the writer works, so every query sees
     a generation fixed by the seed, and the drained feedback (and the
     adapted index) depends on the seed alone.

   Host speed on a shared machine drifts by tens of percent over seconds
   to minutes. Each measured unit of work (a set-up, a chunk of 250 lookup
   queries, a serve batch cycle) is therefore followed by a fixed reference
   kernel, and its time is scaled to a machine that runs the kernel in
   5 ms. Set-up runs many times over a run and reports its fastest; the
   timed work is repeated (a lookup run cycles over one mix, serve-update
   runs its deterministic schedule 3 times) and [qps] divides the work by
   the sum of the fastest scaled time of each unit. The unscaled figures
   are per-layer metrics.

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--scale F]

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
   --trace 0, per-layer metrics with --trace 1. The lines before it carry
   the full report (every percentile with its sample count) and the
   determinism fingerprint (result checksums, final index size, every
   count). A traced lookup run measures half its time untraced and half
   traced; a traced serve-update run adds a traced fourth schedule. Both
   write under .perfbench/ a Chrome trace of the benchmark's own spans
   plus per-domain GC pauses from [Runtime_events], and a per-layer
   self-time table. --scale shrinks the documents, for quick tests.

   The oracle gate runs outside the timed phase and compares answers with
   the naive evaluator; a mismatch makes [correct] false and the exit
   code 1. *)

module Json = Repro_telemetry.Json
module Dataset = Repro_datagen.Dataset
module Xml_parser = Repro_xml.Xml_parser
module Xml_print = Repro_xml.Xml_print
module G = Repro_graph.Data_graph
module Query = Repro_pathexpr.Query
module Naive_eval = Repro_pathexpr.Naive_eval
module Cost = Repro_storage.Cost
module Pager = Repro_storage.Pager
module Buffer_pool = Repro_storage.Buffer_pool
module Data_table = Repro_storage.Data_table
module Extent_store = Repro_storage.Extent_store
module Apex = Repro_apex.Apex
module Apex_query = Repro_apex.Apex_query
module Generate = Repro_workload.Generate
module Update_workload = Repro_workload.Update_workload
module Update = Repro_update.Update
module Self_tuning = Repro_adaptive.Self_tuning
module Policy = Repro_adaptive.Policy
module Server = Repro_server.Server
module Epoch = Repro_server.Epoch
module Registry = Repro_server.Epoch_registry
module Env = Repro_harness.Env
module Measure = Repro_harness.Measure

let min_support = 0.005

let t_boot = Unix.gettimeofday ()
let log fmt = Printf.ksprintf (fun m -> Printf.eprintf "[%7.2fs] %s\n%!" (Unix.gettimeofday () -. t_boot) m) fmt

(* --- clock and sample vectors ------------------------------------------ *)

(* nanoseconds, CLOCK_MONOTONIC — the clock Runtime_events stamps with *)
let now () = Int64.to_int (Monotonic_clock.now ())

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s
end

(* exact nearest-rank percentile of raw samples *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let ns_to_us ns = float_of_int ns /. 1e3
let ns_to_ms ns = float_of_int ns /. 1e6
let ns_to_s ns = float_of_int ns /. 1e9
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* FNV-1a over a result array, the fold the repo's bench reports use *)
let checksum_fold h r =
  let fnv h x = (h lxor x) * 0x100000001b3 land max_int in
  Array.fold_left fnv (fnv h (-1)) r

let fnv_basis = 0x3bf29ce484222325

(* --- process memory ----------------------------------------------------- *)

let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc ->
    output_string oc "5";
    close_out oc
  | exception Sys_error _ -> ()

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* --- spans recorded by the benchmark around library calls --------------- *)

let span_names =
  [| "setup"; "xml.parse"; "graph.encode"; "storage.table_build"; "apex.build";
     "apex.refresh"; "apex.materialize"; "server.create"; "query"; "pathexpr.parse";
     "apex.eval"; "epoch.eval"; "server.query"; "server.drain"; "server.apply";
     "server.refresh"; "server.epoch_copy"; "bench.barrier_wait"; "bench.reference" |]

let sp_setup = 0
let sp_xml_parse = 1
let sp_graph_encode = 2
let sp_table_build = 3
let sp_apex_build = 4
let sp_apex_refresh = 5
let sp_apex_materialize = 6
let sp_server_create = 7
let sp_query = 8
let sp_parse = 9
let sp_apex_eval = 10
let sp_epoch_eval = 11
let sp_server_query = 12
let sp_drain = 13
let sp_apply = 14
let sp_refresh = 15
let sp_epoch_copy = 16
let sp_barrier = 17
let sp_reference = 18

(* One domain's spans, struct-of-arrays, kept in memory until the run
   ends. A span's parent is an index into the same table (-1 = root); its
   request id groups the spans of one query or one writer step. *)
module Spans = struct
  type t = {
    tid : int;
    name : Ivec.t;
    start : Ivec.t;
    stop : Ivec.t;
    parent : Ivec.t;
    req : Ivec.t;
  }

  let create tid =
    { tid; name = Ivec.create (); start = Ivec.create (); stop = Ivec.create ();
      parent = Ivec.create (); req = Ivec.create () }

  let add t ~parent ~req name start stop =
    let id = Ivec.length t.name in
    Ivec.push t.name name;
    Ivec.push t.start start;
    Ivec.push t.stop stop;
    Ivec.push t.parent parent;
    Ivec.push t.req req;
    id

  let add_opt tr ~parent ~req name start stop =
    match tr with Some t -> add t ~parent ~req name start stop | None -> -1

  (* per span name: (count, total ns, self ns); self time is the span's
     duration minus the part its direct children cover *)
  let self_times tables =
    let k = Array.length span_names in
    let count = Array.make k 0 and total = Array.make k 0 and self = Array.make k 0 in
    List.iter
      (fun t ->
        let n = Ivec.length t.name in
        let child = Array.make n 0 in
        for i = 0 to n - 1 do
          let p = Ivec.get t.parent i in
          if p >= 0 then child.(p) <- child.(p) + (Ivec.get t.stop i - Ivec.get t.start i)
        done;
        for i = 0 to n - 1 do
          let nm = Ivec.get t.name i in
          let d = Ivec.get t.stop i - Ivec.get t.start i in
          count.(nm) <- count.(nm) + 1;
          total.(nm) <- total.(nm) + d;
          self.(nm) <- self.(nm) + (d - child.(i))
        done)
      tables;
    (count, total, self)
end

(* --- GC pauses per domain, from Runtime_events ------------------------- *)

module Gc_pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    ring : Ivec.t;
    start : Ivec.t;
    stop : Ivec.t;
    lost : int ref;  (* events overwritten before a poll read them *)
  }

  let max_rings = 128

  (* a domain blocked on a mutex or condition is waiting, not collecting *)
  let counted = function
    | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false
    | _ -> true

  let create () =
    Runtime_events.start ();
    let depth = Array.make max_rings 0 and opened = Array.make max_rings 0 in
    let ring = Ivec.create () and start = Ivec.create () and stop = Ivec.create () in
    let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
    let runtime_begin r x phase =
      if r < max_rings && counted phase then begin
        if depth.(r) = 0 then opened.(r) <- ts x;
        depth.(r) <- depth.(r) + 1
      end
    in
    let runtime_end r x phase =
      if r < max_rings && counted phase && depth.(r) > 0 then begin
        depth.(r) <- depth.(r) - 1;
        if depth.(r) = 0 then begin
          Ivec.push ring r;
          Ivec.push start opened.(r);
          Ivec.push stop (ts x)
        end
      end
    in
    let lost = ref 0 in
    { cursor = Runtime_events.create_cursor None;
      callbacks =
        Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
          ~lost_events:(fun _ n -> lost := !lost + n)
          ();
      ring; start; stop; lost }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  let close t =
    poll t;
    Runtime_events.free_cursor t.cursor;
    Runtime_events.pause ()

  (* total and longest pause (ns) over pauses inside [lo, hi] *)
  let summary t ~lo ~hi =
    let total = ref 0 and longest = ref 0 in
    for i = 0 to Ivec.length t.ring - 1 do
      let s = Ivec.get t.start i and e = Ivec.get t.stop i in
      if s >= lo && e <= hi then begin
        total := !total + (e - s);
        longest := max !longest (e - s)
      end
    done;
    (!total, !longest)

  (* pause time of every ring but [except] overlapping any of the
     [intervals] *)
  let overlap t ~except intervals =
    let acc = ref 0 in
    for i = 0 to Ivec.length t.ring - 1 do
      if Ivec.get t.ring i <> except then begin
        let s = Ivec.get t.start i and e = Ivec.get t.stop i in
        List.iter
          (fun (a, b) ->
            let lo = max a s and hi = min b e in
            if hi > lo then acc := !acc + (hi - lo))
          intervals
      end
    done;
    !acc
end

(* --- trace artifact ------------------------------------------------------ *)

let write_trace ~path ~tables ~gc ~instants =
  let us ns = Json.Num (float_of_int ns /. 1e3) in
  let events = ref [] in
  List.iter
    (fun (t : Spans.t) ->
      for i = Ivec.length t.name - 1 downto 0 do
        let s = Ivec.get t.start i in
        events :=
          Json.Obj
            [ ("name", Json.Str span_names.(Ivec.get t.name i)); ("ph", Json.Str "X");
              ("pid", Json.Num 1.); ("tid", Json.Num (float_of_int t.tid)); ("ts", us s);
              ("dur", us (Ivec.get t.stop i - s));
              ( "args",
                Json.Obj
                  [ ("id", Json.Num (float_of_int i));
                    ("parent", Json.Num (float_of_int (Ivec.get t.parent i)));
                    ("request", Json.Num (float_of_int (Ivec.get t.req i))) ] ) ]
          :: !events
      done)
    tables;
  (match gc with
   | None -> ()
   | Some (g : Gc_pauses.t) ->
     for i = 0 to Ivec.length g.ring - 1 do
       let s = Ivec.get g.start i in
       events :=
         Json.Obj
           [ ("name", Json.Str "gc.pause"); ("cat", Json.Str "gc"); ("ph", Json.Str "X");
             ("pid", Json.Num 2.); ("tid", Json.Num (float_of_int (Ivec.get g.ring i)));
             ("ts", us s); ("dur", us (Ivec.get g.stop i - s)) ]
         :: !events
     done);
  List.iter
    (fun (name, ts, gen) ->
      events :=
        Json.Obj
          [ ("name", Json.Str name); ("ph", Json.Str "i"); ("s", Json.Str "g");
            ("pid", Json.Num 1.); ("tid", Json.Num 0.); ("ts", us ts);
            ("args", Json.Obj [ ("generation", Json.Num (float_of_int gen)) ]) ]
        :: !events)
    instants;
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.Arr !events) ]));
  output_char oc '\n';
  close_out oc

let self_time_table ?gc tables =
  let count, total, self = Spans.self_times tables in
  let b = Buffer.create 1024 in
  (match gc with
   | Some (g : Gc_pauses.t) ->
     Printf.bprintf b "gc pauses recorded: %d (runtime events lost: %d)\n" (Ivec.length g.ring) !(g.lost)
   | None -> ());
  Printf.bprintf b "%-22s %10s %14s %14s\n" "span" "count" "total_ms" "self_ms";
  Array.iteri
    (fun i name ->
      if count.(i) > 0 then
        Printf.bprintf b "%-22s %10d %14.3f %14.3f\n" name count.(i) (ns_to_ms total.(i))
          (ns_to_ms self.(i)))
    span_names;
  Buffer.contents b

(* --- inputs ---------------------------------------------------------------- *)

type inputs = {
  text : string;  (* the XML document *)
  idref_attrs : string list;
  mix : string array;  (* shuffled query strings *)
  qtype : int array;  (* 0/1/2 = QTYPE1/2/3, per mix entry *)
  sample : string array;  (* the 20% QTYPE1 mining sample *)
  batches : Update.op list array;  (* serve-update only *)
}

let shuffle rand a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let rec chunk k = function
  | [] -> []
  | xs ->
    let rec take n acc = function
      | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take k [] xs in
    c :: chunk k rest

let encode inp doc = G.of_document ~idref_attrs:inp.idref_attrs doc

(* [mixes] consecutive shuffled mixes of n1:n2:n3 distinct queries; the
   mining sample is 20% of all of the stream's QTYPE1 queries, so which
   paths clear minSup depends on the query distribution more than on the
   particular draw *)
let make_inputs ~dataset ~scale ~seed ~mixes ~n1 ~n2 ~n3 ~n_batches =
  let spec =
    match Dataset.by_name dataset with
    | Some s -> if scale = 1.0 then s else Dataset.scaled s scale
    | None -> invalid_arg ("unknown dataset " ^ dataset)
  in
  let text = Xml_print.to_string (Dataset.generate_document spec) in
  let idref_attrs = Dataset.idref_attrs spec.Dataset.family in
  let g = G.of_document ~idref_attrs (Xml_parser.parse_string text) in
  let rand = Random.State.make [| 0xA9E1; seed |] in
  let all_q1 = ref [] in
  let mix _ =
    let q1 = Generate.qtype1 ~n:n1 rand g in
    all_q1 := q1 :: !all_q1;
    let q2 = if n2 > 0 then Generate.qtype2 ~n:n2 rand g else [||] in
    let q3 = Generate.qtype3 ~n:n3 rand g in
    let tagged =
      Array.concat
        [ Array.map (fun q -> (0, q)) q1; Array.map (fun q -> (1, q)) q2;
          Array.map (fun q -> (2, q)) q3 ]
    in
    shuffle rand tagged;
    tagged
  in
  let tagged = Array.concat (List.init mixes mix) in
  let sample = Generate.sample rand ~fraction:0.2 (Array.concat (List.rev !all_q1)) in
  let to_text q =
    let s = Query.to_string q in
    (match Query.parse s with
     | Ok q' when Query.equal q q' -> ()
     | Ok _ | Error _ -> failwith ("query does not round-trip through its text: " ^ s));
    s
  in
  let batches =
    if n_batches = 0 then [||]
    else begin
      let ops, _final = Update_workload.gen_ops ~seed ~n:(4 * n_batches) g in
      let b = Array.of_list (chunk 4 ops) in
      if Array.length b < n_batches then failwith "update workload ran out of operations";
      b
    end
  in
  { text; idref_attrs;
    mix = Array.map (fun (_, q) -> to_text q) tagged;
    qtype = Array.map fst tagged;
    sample = Array.map to_text sample;
    batches }

let parse_exn s =
  match Query.parse s with Ok q -> q | Error m -> failwith ("query parse: " ^ m)

(* --- metrics and the result line ---------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_samples : int option }

let metric ?samples m_name m_unit m_value = { m_name; m_value; m_unit; m_samples = samples }

(* Per-qtype latency percentiles are per-layer metrics: over ten seeds on a
   2-vCPU machine their spread (IQR / median) reached 0.23 (q1 p50),
   0.19 (q1 p99), 0.34 (q3 p50, serve-update) and 0.44 (q3 p99,
   lookup-tree), beyond any bound the end-to-end list may carry. *)
let end_to_end_names = [ "setup_s"; "qps"; "index_bytes_per_edge"; "peak_rss_mb" ]

let qnames = [| "q1"; "q2"; "q3" |]

(* per-qtype counting window: the first [window] timed queries of a run
   (a fixed prefix of the seeded stream) accumulate their costs here, so
   every count is a function of the seed alone *)
type window = {
  w_cost : Cost.t array;
  w_count : int array;
  w_results : int array;
  w_checksum : int array;
  mutable w_left : int;
}

let make_window n =
  { w_cost = Array.init 3 (fun _ -> Cost.create ()); w_count = Array.make 3 0;
    w_results = Array.make 3 0; w_checksum = Array.make 3 fnv_basis; w_left = n }

let window_metrics w =
  List.concat_map
    (fun k ->
      let c = w.w_cost.(k) and n = max 1 w.w_count.(k) in
      let per x = float_of_int x /. float_of_int n in
      let q = qnames.(k) in
      [ metric (q ^ ".hash_probes") "count" (per c.Cost.hash_probes);
        metric (q ^ ".index_node_visits") "count" (per c.Cost.index_node_visits);
        metric (q ^ ".join_edges") "count" (per c.Cost.join_edges);
        metric (q ^ ".result_nodes") "count" (per w.w_results.(k));
        metric (q ^ ".join_yield") "ratio" (ratio w.w_results.(k) c.Cost.join_edges);
        metric (q ^ ".extent_edges") "count" (per c.Cost.extent_edges);
        metric (q ^ ".extent_bytes") "B" (per c.Cost.extent_bytes);
        metric (q ^ ".blocks_decoded") "count" (per c.Cost.blocks_decoded);
        metric (q ^ ".block_skip_ratio") "ratio"
          (ratio c.Cost.blocks_skipped (c.Cost.blocks_skipped + c.Cost.blocks_decoded));
        metric (q ^ ".extent_cache_hit_rate") "ratio" (Cost.extent_cache_hit_rate c) ])
    [ 0; 1; 2 ]
  @ [ metric "q3.table_pages" "count"
        (float_of_int w.w_cost.(2).Cost.table_pages /. float_of_int (max 1 w.w_count.(2))) ]

let window_fingerprint w =
  List.concat
    (List.init 3 (fun k ->
         let q = qnames.(k) in
         [ (q ^ ".checksum", Json.Str (Printf.sprintf "%x" w.w_checksum.(k)));
           (q ^ ".queries", Json.Num (float_of_int w.w_count.(k)));
           (q ^ ".results", Json.Num (float_of_int w.w_results.(k))) ]
         @ List.map
             (fun (f, v) -> (q ^ "." ^ f, Json.Num (float_of_int v)))
             (Cost.to_fields w.w_cost.(k))))

let latency_metrics lat =
  let s = Array.map Ivec.sorted lat in
  let p k pct name = metric ~samples:(Array.length s.(k)) name "us" (ns_to_us (percentile s.(k) pct)) in
  [ p 0 0.5 "q1_p50_us"; p 0 0.99 "q1_p99_us"; p 1 0.5 "q2_p50_us"; p 1 0.9 "q2_p90_us";
    p 2 0.5 "q3_p50_us"; p 2 0.99 "q3_p99_us" ]

let result_line ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct); ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.m_name, Json.Obj [ ("value", Json.Num m.m_value); ("unit", Json.Str m.m_unit) ]))
             metrics) ) ]

let report_json ~workload ~seed ~trace metrics =
  Json.Obj
    [ ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Bool trace);
      ( "metrics",
        Json.Arr
          (List.map
             (fun m ->
               Json.Obj
                 ([ ("name", Json.Str m.m_name); ("value", Json.Num m.m_value);
                    ("unit", Json.Str m.m_unit) ]
                 @ match m.m_samples with
                   | Some n -> [ ("samples", Json.Num (float_of_int n)) ]
                   | None -> [])) metrics) ) ]

(* --- GC counters ----------------------------------------------------------- *)

type gc_mark = { minor : float; promoted : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = Gc.minor_words (); promoted = s.Gc.promoted_words; majors = s.Gc.major_collections }

(* minor/promoted words per query between two marks of one domain *)
let gc_metrics ~queries ~majors a b =
  let per x = x /. float_of_int (max 1 queries) in
  [ metric "gc.minor_words_per_query" "words" (per (b.minor -. a.minor));
    metric "gc.promoted_words_per_query" "words" (per (b.promoted -. a.promoted));
    metric "gc.major_collections" "count" (float_of_int majors) ]

(* --- lookup workloads ----------------------------------------------------- *)

type lookup_env = { graph : G.t; pool : Buffer_pool.t; table : Data_table.t; apex : Apex.t }

(* XML text to a query-ready index; returns per-step times (ns) *)
let setup_lookup ~pool_pages ~tr ~req inp =
  let t0 = now () in
  let doc = Xml_parser.parse_string inp.text in
  let t1 = now () in
  let graph = encode inp doc in
  let t2 = now () in
  let pool = Buffer_pool.create (Pager.create ~page_size:8192 ()) ~capacity:pool_pages in
  let table = Data_table.build pool graph in
  let t3 = now () in
  let apex = Apex.build graph in
  let t4 = now () in
  let workload = Env.compile_workload graph (Array.map parse_exn inp.sample) in
  Apex.refresh apex ~workload ~min_support;
  let t5 = now () in
  Apex.materialize apex pool;
  Buffer_pool.flush pool;
  let t6 = now () in
  let root = Spans.add_opt tr ~parent:(-1) ~req sp_setup t0 t6 in
  List.iter
    (fun (name, a, b) -> ignore (Spans.add_opt tr ~parent:root ~req name a b : int))
    [ (sp_xml_parse, t0, t1); (sp_graph_encode, t1, t2); (sp_table_build, t2, t3);
      (sp_apex_build, t3, t4); (sp_apex_refresh, t4, t5); (sp_apex_materialize, t5, t6) ];
  ({ graph; pool; table; apex }, [| t6 - t0; t1 - t0; t2 - t1; t3 - t2; t4 - t3; t5 - t4; t6 - t5 |])

type loop_stats = {
  lat : Ivec.t array;  (* per qtype, ns *)
  parse_ns : int array;  (* per qtype, traced phase only *)
  eval_ns : int array;
  mutable queries : int;
  mutable failed : int;
}

let make_loop_stats () =
  { lat = Array.init 3 (fun _ -> Ivec.create ()); parse_ns = Array.make 3 0;
    eval_ns = Array.make 3 0; queries = 0; failed = 0 }

(* Closed loop, one client: parse then evaluate [count] query strings of
   the stream in turn, from position [from]. *)
let lookup_loop env inp ~from ~count ~stats ~window ~scratch ~tr ~gc =
  let n = Array.length inp.mix in
  for i = from to from + count - 1 do
    let k = i mod n in
    let qt = inp.qtype.(k) in
    let windowed = window.w_left > 0 in
    let cost = if windowed then window.w_cost.(qt) else scratch in
    let t0 = now () in
    (match Query.parse inp.mix.(k) with
     | Error _ -> stats.failed <- stats.failed + 1
     | Ok q ->
       let t1 = now () in
       (match Apex_query.eval_query ~cost ~table:env.table env.apex q with
        | r ->
          let t2 = now () in
          Ivec.push stats.lat.(qt) (t2 - t0);
          if windowed then begin
            window.w_left <- window.w_left - 1;
            window.w_count.(qt) <- window.w_count.(qt) + 1;
            window.w_results.(qt) <- window.w_results.(qt) + Array.length r;
            window.w_checksum.(qt) <- checksum_fold window.w_checksum.(qt) r
          end;
          (match tr with
           | None -> ()
           | Some t ->
             stats.parse_ns.(qt) <- stats.parse_ns.(qt) + (t1 - t0);
             stats.eval_ns.(qt) <- stats.eval_ns.(qt) + (t2 - t1);
             let root = Spans.add t ~parent:(-1) ~req:i sp_query t0 t2 in
             ignore (Spans.add t ~parent:root ~req:i sp_parse t0 t1 : int);
             ignore (Spans.add t ~parent:root ~req:i sp_apex_eval t1 t2 : int))
        | exception _ -> stats.failed <- stats.failed + 1));
    stats.queries <- stats.queries + 1;
    match gc with Some g when i land 255 = 0 -> Gc_pauses.poll g | _ -> ()
  done

(* the oracle gate: the first [per_type.(qt)] queries of each qtype in the
   stream, answered by the index and by the naive evaluator over the same
   graph; returns (checked, qtypes with a mismatch) *)
let lookup_oracle env inp ~per_type =
  let eval ~cost q = Apex_query.eval_query ~cost ~table:env.table env.apex q in
  let checked = ref 0 in
  let bad =
    List.filter
      (fun qt ->
        let qs = ref [] in
        Array.iteri
          (fun k s -> if inp.qtype.(k) = qt && List.length !qs < per_type.(qt) then qs := s :: !qs)
          inp.mix;
        let qs = Array.of_list (List.rev_map parse_exn !qs) in
        checked := !checked + Array.length qs;
        match Measure.verify_sample ~n:(Array.length qs) env.graph qs eval with
        | Ok () -> false
        | Error m -> log "oracle mismatch (%s): %s" qnames.(qt) m; true
        | exception e -> log "oracle: %s raised %s" qnames.(qt) (Printexc.to_string e); true)
      [ 0; 1; 2 ]
  in
  (!checked, List.length bad)

let setup_step_names =
  [| "setup_s"; "xml.parse_s"; "graph.encode_s"; "storage.table_build_s"; "apex.build_s";
     "apex.refresh_s"; "apex.materialize_s" |]


(* the per-layer set-up steps (everything but the total) *)
let step_metrics ~samples steps =
  List.tl (Array.to_list (Array.mapi (fun j name -> metric ~samples name "s" steps.(j)) setup_step_names))

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  fingerprint : (string * Json.t) list;
  artifacts : (string -> unit) option;  (* writes the trace files under a prefix *)
}

(* --- host speed reference ---------------------------------------------------- *)

(* A fixed kernel that no library change touches: open-addressing inserts
   into a preallocated 256 KB table, then an in-place sort of 16384 ints.
   It allocates nothing, so no collection, and with it none of the
   program's GC debt, runs inside it; its arrays are too small to move the
   program's memory figures. It runs three times right after each measured
   unit of work, and the unit's time is scaled by [ref_nominal_ns] over the
   fastest of the three: seconds on a host that runs the kernel in 5 ms.
   Taking the fastest keeps a preempted kernel run from shrinking a unit's
   scaled time. *)
let ref_nominal_ns = 5_000_000

let ref_table = Array.make 32_768 0
let ref_keys = Array.make 16_384 0

let kernel_ns () =
  let t0 = now () in
  let mask = Array.length ref_table - 1 in
  Array.fill ref_table 0 (mask + 1) (-1);
  for i = 1 to 24_000 do
    let k = i * 7919 in
    let h = ref (k * 0x9E3779B1 land mask) in
    while ref_table.(!h) >= 0 do
      h := (!h + 1) land mask
    done;
    ref_table.(!h) <- k
  done;
  for i = 0 to Array.length ref_keys - 1 do
    ref_keys.(i) <- i * 7919 mod 16_381
  done;
  Array.sort Int.compare ref_keys;
  now () - t0

let reference_ns () =
  Gc.minor ();
  let a = kernel_ns () in
  let b = kernel_ns () in
  min a (min b (kernel_ns ()))

(* [ns] of work followed by a reference run of [r] ns, at reference speed *)
let scaled ns r = int_of_float (float_of_int ns *. float_of_int ref_nominal_ns /. float_of_int r)

(* The timed work is repeated and each unit of it keeps its fastest scaled
   time: [qps] is the work divided by the sum of those best times. *)
let best_rate ~per_unit best =
  let units = ref 0 and ns = ref 0 in
  Array.iter
    (fun t ->
      if t < max_int then begin
        incr units;
        ns := !ns + t
      end)
    best;
  float_of_int (!units * per_unit) /. ns_to_s !ns

(* a set-up runs after every [setup_every_ns] of timed queries *)
let setup_every_ns = 1_000_000_000

(* A run's set-ups, each as (step times, reference time). The run reports
   the fastest scaled time of each step, and the fastest unscaled total. *)
let setup_summary runs =
  let fastest f = ns_to_s (List.fold_left (fun m r -> min m (f r)) max_int runs) in
  ( Array.mapi (fun j _ -> fastest (fun (t, r) -> scaled t.(j) r)) setup_step_names,
    fastest (fun (t, _) -> t.(0)) )

let setup_log runs steps =
  log "set-up x%d (fastest scaled %.4fs; unscaled %s)" (List.length runs) steps.(0)
    (String.concat " " (List.rev_map (fun (t, _) -> Printf.sprintf "%.4f" (ns_to_s t.(0))) runs))

(* median reference time over a run *)
let reference_ms refs = ns_to_ms (percentile (Ivec.sorted refs) 0.5)

let run_lookup ~dataset ~pool_pages ~scale ~seed ~seconds ~trace =
  (* 8 shuffled mixes of 2500:250:500 QTYPE1/2/3, the paper's ratio at half
     size, so that the timed phase can repeat one whole mix several times *)
  let n1 = 2500 and n2 = 250 and n3 = 500 in
  let mix_len = n1 + n2 + n3 in
  let inp = make_inputs ~dataset ~scale ~seed ~mixes:8 ~n1 ~n2 ~n3 ~n_batches:0 in
  log "inputs ready: %d query strings, %d bytes of XML" (Array.length inp.mix) (String.length inp.text);
  Gc.compact ();
  reset_peak_rss ();
  let runs = ref [] in
  let setup_once () =
    Gc.compact ();
    let e, times = setup_lookup ~pool_pages ~tr:None ~req:0 inp in
    runs := (times, reference_ns ()) :: !runs;
    e
  in
  let env = setup_once () in
  Gc.compact ();
  let io = Pager.stats (Buffer_pool.pager env.pool) in
  let pages_written = io.Repro_storage.Io_stats.disk_writes in
  (* warm-up: a fixed prefix of the stream fills the buffer pool and the
     extent caches; it is neither timed nor counted *)
  let warm = 500 in
  for k = 0 to warm - 1 do
    ignore (Apex_query.eval_query ~table:env.table env.apex (parse_exn inp.mix.(k)) : int array)
  done;
  (* the counting window: the next 2000 queries of the stream, untimed *)
  let wq = 2000 in
  let window = make_window wq in
  let scratch = Cost.create () in
  let reads0 = io.Repro_storage.Io_stats.disk_reads
  and hits0 = io.Repro_storage.Io_stats.cache_hits
  and miss0 = io.Repro_storage.Io_stats.cache_misses in
  let gc0 = gc_mark () in
  let wstats = make_loop_stats () in
  lookup_loop env inp ~from:warm ~count:wq ~stats:wstats ~window ~scratch ~tr:None ~gc:None;
  let gc1 = gc_mark () in
  let reads1 = io.Repro_storage.Io_stats.disk_reads
  and hits1 = io.Repro_storage.Io_stats.cache_hits
  and miss1 = io.Repro_storage.Io_stats.cache_misses in
  (* one index has been built and served; the set-ups between chunks below
     hold a second one for a moment, so memory is read here *)
  let peak = peak_rss_mb () in
  let phase_ns = if trace then seconds * 500_000_000 else seconds * 1_000_000_000 in
  let chunk_len = 250 in
  let chunks = mix_len / chunk_len in
  (* closed loop over the first mix, repeated for [phase_ns] of query time;
     each chunk of it keeps its fastest scaled time. [between] runs every
     second, between chunks. *)
  let refs = Ivec.create () in
  let passes ~stats ~tr ~gc ~between =
    let best = Array.make chunks max_int in
    let busy = ref 0 and since = ref 0 and j = ref 0 in
    while !busy < phase_ns do
      let s0 = now () in
      lookup_loop env inp ~from:(!j * chunk_len) ~count:chunk_len ~stats ~window ~scratch ~tr ~gc;
      let d = now () - s0 in
      let r = reference_ns () in
      Ivec.push refs r;
      best.(!j) <- min best.(!j) (scaled d r);
      busy := !busy + d;
      since := !since + d;
      j := (!j + 1) mod chunks;
      if !since >= setup_every_ns then begin
        between ();
        since := 0
      end
    done;
    (best_rate ~per_unit:chunk_len best, float_of_int stats.queries /. ns_to_s !busy)
  in
  (* untraced: a dropped set-up between chunks, so set-up samples the
     machine across the whole run *)
  let stats = make_loop_stats () in
  let qps, mean_qps =
    passes ~stats ~tr:None ~gc:None ~between:(fun () ->
        ignore (setup_once () : lookup_env);
        Gc.compact ())
  in
  log "timed phase: %d queries, unscaled mean %.1f/s, scaled best-chunk %.1f/s" stats.queries
    mean_qps qps;
  (* traced: the same passes with spans and GC pause collection, without
     set-ups in between *)
  let traced =
    if not trace then None
    else begin
      let tr = Spans.create 0 in
      (* one traced set-up, for its spans; its index is dropped *)
      ignore (setup_lookup ~pool_pages ~tr:(Some tr) ~req:(-1) inp : lookup_env * int array);
      Gc.compact ();
      let gc = Gc_pauses.create () in
      let tstats = make_loop_stats () in
      let t0 = now () in
      let traced_qps, _ = passes ~stats:tstats ~tr:(Some tr) ~gc:(Some gc) ~between:ignore in
      let t1 = now () in
      Gc_pauses.close gc;
      Some (tr, gc, tstats, traced_qps, t0, t1)
    end
  in
  let index_bytes =
    match Apex.store env.apex with
    | Some store -> snd (Extent_store.compression_stats store)
    | None -> 0
  in
  let checked, mismatches = lookup_oracle env inp ~per_type:[| 100; 20; 50 |] in
  let nodes, edges = Apex.stats env.apex and data_edges = G.n_edges env.graph in
  let steps, wall_setup = setup_summary !runs in
  let setups = List.length !runs in
  setup_log !runs steps;
  log "oracle gate: %d checked, %d mismatches" checked mismatches;
  let traced_failed, traced_queries =
    match traced with Some (_, _, t, _, _, _) -> (t.failed, t.queries) | None -> (0, 0)
  in
  let failed = wstats.failed + stats.failed + traced_failed + mismatches in
  let attempted = wstats.queries + stats.queries + traced_queries in
  let lat = latency_metrics stats.lat in
  let find n = List.find (fun m -> String.equal m.m_name n) lat in
  let end_to_end =
    [ metric ~samples:setups "setup_s" "s" steps.(0);
      metric ~samples:stats.queries "qps" "1/s" qps;
      metric "index_bytes_per_edge" "B/edge" (ratio index_bytes data_edges);
      metric "peak_rss_mb" "MB" peak ]
  in
  let per_layer () =
    let _, gc, tstats, traced_qps, t0, t1 = match traced with Some x -> x | None -> assert false in
    let per_q k v = ns_to_us v /. float_of_int (max 1 (Ivec.length tstats.lat.(k))) in
    let pause_total, pause_max = Gc_pauses.summary gc ~lo:t0 ~hi:t1 in
    step_metrics ~samples:setups steps
    @ [ metric "apex.summary_nodes" "count" (float_of_int nodes);
        metric "apex.summary_edges" "count" (float_of_int edges) ]
    @ List.init 3 (fun k ->
          metric ~samples:(Ivec.length tstats.lat.(k))
            ("pathexpr." ^ qnames.(k) ^ ".parse_us") "us" (per_q k tstats.parse_ns.(k)))
    @ List.init 3 (fun k ->
          metric ~samples:(Ivec.length tstats.lat.(k)) (qnames.(k) ^ ".eval_us") "us"
            (per_q k tstats.eval_ns.(k)))
    @ window_metrics window
    @ [ metric "storage.pages_written" "count" (float_of_int pages_written);
        metric "storage.disk_reads_per_query" "count" (ratio (reads1 - reads0) wq);
        metric "storage.pool_hit_rate" "ratio" (ratio (hits1 - hits0) (hits1 - hits0 + miss1 - miss0)) ]
    @ gc_metrics ~queries:wq ~majors:(gc1.majors - gc0.majors) gc0 gc1
    @ [ metric "gc.pause_total_ms" "ms" (ns_to_ms pause_total);
        metric "gc.pause_max_ms" "ms" (ns_to_ms pause_max);
        metric ~samples:tstats.queries "bench.traced_qps" "1/s" traced_qps;
        metric "bench.trace_overhead_ratio" "ratio" (traced_qps /. qps);
        metric ~samples:(Ivec.length refs) "bench.reference_ms" "ms" (reference_ms refs);
        metric ~samples:stats.queries "bench.wall_qps" "1/s" mean_qps;
        metric ~samples:setups "bench.wall_setup_s" "s" wall_setup;
        find "q1_p50_us"; find "q1_p99_us"; find "q2_p50_us"; find "q2_p90_us";
        find "q3_p50_us"; find "q3_p99_us";
        metric "bench.fail_ratio" "ratio" (ratio failed attempted) ]
  in
  let fingerprint =
    [ ("apex.summary_nodes", Json.Num (float_of_int nodes));
      ("apex.summary_edges", Json.Num (float_of_int edges));
      ("storage.pages_written", Json.Num (float_of_int pages_written));
      ("storage.disk_reads", Json.Num (float_of_int (reads1 - reads0)));
      ("storage.pool_hits", Json.Num (float_of_int (hits1 - hits0)));
      ("index_bytes", Json.Num (float_of_int index_bytes));
      ("oracle.checked", Json.Num (float_of_int checked)) ]
    @ window_fingerprint window
  in
  let artifacts =
    match traced with
    | None -> None
    | Some (tr, gc, _, _, _, _) ->
      Some
        (fun prefix ->
          write_trace ~path:(prefix ^ ".trace.json") ~tables:[ tr ] ~gc:(Some gc) ~instants:[];
          let oc = open_out (prefix ^ ".selftime.txt") in
          output_string oc (self_time_table ~gc [ tr ]);
          close_out oc)
  in
  { correct = mismatches = 0; attempted; failed;
    metrics = (if trace then per_layer () else end_to_end);
    fingerprint; artifacts }

(* --- serve-update ---------------------------------------------------------- *)

(* XML text to a serving server whose current generation is the adapted
   index: the 20% sample goes through [record_external] with each query's
   cost measured on APEX0, then one forced refresh publishes it *)
let setup_serve ~tr ~req inp =
  let t0 = now () in
  let doc = Xml_parser.parse_string inp.text in
  let t1 = now () in
  let graph = encode inp doc in
  let t2 = now () in
  let policy = Policy.create ~config:{ Policy.default_config with Policy.min_support } () in
  let server =
    Server.create ~log_capacity:(Array.length inp.sample) ~min_support ~refresh_every:1_000_000
      ~policy graph
  in
  let t3 = now () in
  let tuner = Server.tuner server in
  Array.iter
    (fun s ->
      let q = parse_exn s in
      let cost = Cost.create () in
      ignore (Apex_query.eval_query ~cost (Self_tuning.apex tuner) q : int array);
      Self_tuning.record_external tuner ~extent_pages:cost.Cost.extent_pages
        ~extent_edges:cost.Cost.extent_edges ~join_edges:cost.Cost.join_edges q)
    inp.sample;
  let generation = Server.force_refresh server in
  let t4 = now () in
  let root = Spans.add_opt tr ~parent:(-1) ~req sp_setup t0 t4 in
  List.iter
    (fun (name, a, b) -> ignore (Spans.add_opt tr ~parent:root ~req name a b : int))
    [ (sp_xml_parse, t0, t1); (sp_graph_encode, t1, t2); (sp_server_create, t2, t3);
      (sp_apex_refresh, t3, t4) ];
  (server, generation, [| t4 - t0; t1 - t0; t2 - t1; 0; t3 - t2; t4 - t3; 0 |])

(* The reader parks before query [k * per_batch] until the writer has
   finished step [k]: drained the feedback of the reader's earlier queries,
   applied batch [k] and published. Every query of reader batch [k] thus
   sees the generation of writer step [k], and the feedback the writer
   drains, and with it the adapted index, depends on the seed alone. Both
   sides block on a condition. *)
type sync = { m : Mutex.t; c : Condition.t; mutable parked : int; mutable released : int }

let park s k =
  Mutex.lock s.m;
  s.parked <- k;
  Condition.broadcast s.c;
  while s.released <= k do
    Condition.wait s.c s.m
  done;
  Mutex.unlock s.m

let await_park s k =
  Mutex.lock s.m;
  while s.parked < k do
    Condition.wait s.c s.m
  done;
  Mutex.unlock s.m

let release s k =
  Mutex.lock s.m;
  s.released <- k + 1;
  Condition.broadcast s.c;
  Mutex.unlock s.m

type reader_result = {
  r_lat : Ivec.t array;
  r_resumed : Ivec.t;  (* when each batch left its park, then when the last ended *)
  r_queries : int;
  r_failed : int;
  r_wait_ns : int;
  r_gc0 : gc_mark;
  r_gc1 : gc_mark;
  r_parse_ns : int array;
  r_eval_ns : int array;  (* probe [Epoch.eval] on the pinned epoch *)
  r_overhead_ns : int;  (* [Server.query] time minus probe time *)
  r_spans : Spans.t option;
}

(* (generation, checksum, length) of every [log_stride]-th reader query,
   for the oracle; generation -1 = not logged *)
type observations = { gen : int array; ck : int array; len : int array }

let log_stride = 8

let reader_body server inp ~total ~per_batch ~sync ~obs ~traced =
  let ring = (Domain.self () :> int) in
  let tr = if traced then Some (Spans.create ring) else None in
  let lat = Array.init 3 (fun _ -> Ivec.create ()) in
  let parse_ns = Array.make 3 0 and eval_ns = Array.make 3 0 in
  let failed = ref 0 and wait = ref 0 and overhead = ref 0 in
  let n = Array.length inp.mix in
  let registry = Server.registry server in
  let gc0 = gc_mark () in
  let resumed = Ivec.create () in
  for i = 0 to total - 1 do
    if i mod per_batch = 0 then begin
      let w0 = now () in
      park sync (i / per_batch);
      let w1 = now () in
      Ivec.push resumed w1;
      wait := !wait + (w1 - w0);
      ignore (Spans.add_opt tr ~parent:(-1) ~req:i sp_barrier w0 w1 : int)
    end;
    let k = i mod n in
    let qt = inp.qtype.(k) in
    let t0 = now () in
    match Query.parse inp.mix.(k) with
    | Error _ -> incr failed
    | Ok q ->
      let t1 = now () in
      (* traced: time [Epoch.eval] on a pinned epoch next to the
         [Server.query] call, alternating which runs first so neither
         always finds the caches warm *)
      let probe () =
        let entry = Registry.pin registry in
        let e0 = now () in
        let r = Epoch.eval (Registry.payload entry) q in
        let e1 = now () in
        Registry.unpin entry;
        ignore (Sys.opaque_identity r : int array);
        (e0, e1)
      in
      let before = traced && i land 1 = 0 in
      let e0, e1 = if before then probe () else (0, 0) in
      let t2 = now () in
      (match Server.query_pinned server q with
       | generation, r ->
         let t3 = now () in
         let e0, e1 = if traced && not before then probe () else (e0, e1) in
         let probe = e1 - e0 in
         Ivec.push lat.(qt) (t1 - t0 + (t3 - t2));
         if i mod log_stride = 0 then begin
           obs.gen.(i) <- generation;
           obs.ck.(i) <- checksum_fold fnv_basis r;
           obs.len.(i) <- Array.length r
         end;
         (match tr with
          | None -> ()
          | Some t ->
            parse_ns.(qt) <- parse_ns.(qt) + (t1 - t0);
            eval_ns.(qt) <- eval_ns.(qt) + probe;
            overhead := !overhead + (t3 - t2 - probe);
            let root = Spans.add t ~parent:(-1) ~req:i sp_query t0 (max t3 e1) in
            ignore (Spans.add t ~parent:root ~req:i sp_parse t0 t1 : int);
            ignore (Spans.add t ~parent:root ~req:i sp_epoch_eval e0 e1 : int);
            ignore (Spans.add t ~parent:root ~req:i sp_server_query t2 t3 : int))
       | exception _ -> incr failed)
  done;
  Ivec.push resumed (now ());
  { r_lat = lat; r_resumed = resumed; r_queries = total; r_failed = !failed; r_wait_ns = !wait; r_gc0 = gc0;
    r_gc1 = gc_mark (); r_parse_ns = parse_ns; r_eval_ns = eval_ns; r_overhead_ns = !overhead;
    r_spans = tr }

type schedule = {
  reader : reader_result;
  obs : observations;
  published : (int * int) list;  (* (generation, batches applied) *)
  publish_ns : Ivec.t;
  drain_ns : Ivec.t;
  refresh_ns : Ivec.t;
  copy_ns : Ivec.t;
  refs : Ivec.t;  (* the reference run each writer step starts with *)
  publish_windows : (int * int) list;
  publish_marks : (int * int) list;  (* (instant, generation) of each publish *)
  writer_spans : Spans.t option;
  elapsed_ns : int;
  majors : int;
  t_start : int;
  t_end : int;
}

(* One reader domain against the writer (this domain): time the reference
   kernel, drain, apply one batch and publish, force a refresh every 5
   batches, then let the reader run its next batch. *)
let serve_schedule server inp ~batches ~per_batch ~traced ~gc =
  let total = batches * per_batch in
  let obs = { gen = Array.make total (-1); ck = Array.make total 0; len = Array.make total 0 } in
  let sync = { m = Mutex.create (); c = Condition.create (); parked = -1; released = 0 } in
  let wtr = if traced then Some (Spans.create (Domain.self () :> int)) else None in
  let publish_ns = Ivec.create () and drain_ns = Ivec.create () in
  let refresh_ns = Ivec.create () and copy_ns = Ivec.create () and refs = Ivec.create () in
  let published = ref [] and windows = ref [] and marks = ref [] in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t_start = now () in
  let reader =
    Domain.spawn (fun () -> reader_body server inp ~total ~per_batch ~sync ~obs ~traced)
  in
  for b = 0 to batches - 1 do
    await_park sync b;
    let q0 = now () in
    Ivec.push refs (reference_ns ());
    let t0 = now () in
    ignore (Spans.add_opt wtr ~parent:(-1) ~req:b sp_reference q0 t0 : int);
    ignore (Server.drain_feedback server : int * int option);
    let t1 = now () in
    let generation = Server.apply server inp.batches.(b) in
    let t2 = now () in
    Ivec.push drain_ns (t1 - t0);
    Ivec.push publish_ns (t2 - t1);
    published := (generation, b + 1) :: !published;
    windows := (t1, t2) :: !windows;
    marks := (t2, generation) :: !marks;
    ignore (Spans.add_opt wtr ~parent:(-1) ~req:b sp_drain t0 t1 : int);
    ignore (Spans.add_opt wtr ~parent:(-1) ~req:b sp_apply t1 t2 : int);
    if (b + 1) mod 5 = 0 then begin
      let r0 = now () in
      let generation = Server.force_refresh server in
      let r1 = now () in
      Ivec.push refresh_ns (r1 - r0);
      published := (generation, b + 1) :: !published;
      marks := (r1, generation) :: !marks;
      ignore (Spans.add_opt wtr ~parent:(-1) ~req:b sp_refresh r0 r1 : int)
    end;
    release sync b;
    if traced then begin
      (* the copy a publish makes, timed from outside on the live index
         while the reader runs *)
      let c0 = now () in
      ignore (Sys.opaque_identity (Epoch.of_apex (Self_tuning.apex (Server.tuner server))) : Epoch.t);
      let c1 = now () in
      Ivec.push copy_ns (c1 - c0);
      ignore (Spans.add_opt wtr ~parent:(-1) ~req:b sp_epoch_copy c0 c1 : int)
    end;
    match gc with Some g -> Gc_pauses.poll g | None -> ()
  done;
  let reader = Domain.join reader in
  let t_end = now () in
  ignore (Server.drain_feedback server : int * int option);
  ignore (Server.retire server : int);
  { reader; obs; published = !published; publish_ns; drain_ns; refresh_ns; copy_ns; refs;
    publish_windows = !windows; publish_marks = !marks; writer_spans = wtr; elapsed_ns = t_end - t_start;
    majors = (Gc.quick_stat ()).Gc.major_collections - majors0; t_start; t_end }

(* Replay every logged (generation, checksum) on that generation's graph,
   rebuilt by replaying the deterministic op batches from the document.
   Observations are ordered by the number of batches their generation had
   applied; two domains each take half of that order, and each keeps one
   graph of its own alive at a time. *)
let serve_oracle inp sch =
  let batches_at = Hashtbl.create 256 in
  List.iter (fun (g, b) -> Hashtbl.replace batches_at g b) sch.published;
  let total = Array.length sch.obs.gen in
  let key i =
    let g = sch.obs.gen.(i) in
    if g < 0 then -1 else match Hashtbl.find_opt batches_at g with Some b -> b | None -> 0
  in
  let keys = Array.init total key in
  let order = Array.init total (fun i -> i) in
  Array.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) order;
  let n = Array.length inp.mix in
  let replay lo hi =
    let graph = ref (encode inp (Xml_parser.parse_string inp.text)) in
    let applied = ref 0 and mismatches = ref 0 and checked = ref 0 in
    for j = lo to hi - 1 do
      let i = order.(j) in
      let k = keys.(i) in
      if k >= 0 then begin
        while !applied < k do
          List.iter
            (fun op -> graph := (Update.apply_graph !graph op).Update.graph)
            inp.batches.(!applied);
          incr applied
        done;
        incr checked;
        let r = Naive_eval.eval_query !graph (parse_exn inp.mix.(i mod n)) in
        let len = Array.length r and ck = checksum_fold fnv_basis r in
        if len <> sch.obs.len.(i) || ck <> sch.obs.ck.(i) then incr mismatches
      end
    done;
    (!checked, !mismatches)
  in
  let half = total / 2 in
  let other = Domain.spawn (fun () -> replay half total) in
  let c1, m1 = replay 0 half in
  let c2, m2 = Domain.join other in
  (c1 + c2, m1 + m2)

(* counts on the final generation: a fixed prefix of the stream evaluated
   on the current epoch with per-qtype cost accounting *)
let final_generation_window server inp ~n =
  let w = make_window n in
  let entry = Registry.pin (Server.registry server) in
  let epoch = Registry.payload entry in
  Array.iteri
    (fun k s ->
      if w.w_left > 0 then begin
        let qt = inp.qtype.(k) in
        let r = Epoch.eval ~cost:w.w_cost.(qt) epoch (parse_exn s) in
        w.w_left <- w.w_left - 1;
        w.w_count.(qt) <- w.w_count.(qt) + 1;
        w.w_results.(qt) <- w.w_results.(qt) + Array.length r;
        w.w_checksum.(qt) <- checksum_fold w.w_checksum.(qt) r
      end)
    inp.mix;
  let stats = Apex.stats (Epoch.apex epoch) in
  Registry.unpin entry;
  (w, stats)

let median_ns v = if Ivec.length v = 0 then 0 else percentile (Ivec.sorted v) 0.5

(* reader cycle times at reference speed: batch [b]'s queries plus the
   writer step after it, less the reference run that step starts with *)
let cycles sch =
  let res = sch.reader.r_resumed in
  let n = Ivec.length res - 1 in
  Array.init n (fun b ->
      let d = Ivec.get res (b + 1) - Ivec.get res b in
      if b + 1 < n then
        let r = Ivec.get sch.refs (b + 1) in
        scaled (d - r) r
      else scaled d (Ivec.get sch.refs b))

let run_serve ~dataset ~scale ~seed ~seconds ~trace =
  (* 50 batches of 800 reader queries at --seconds 20, run 3 times over *)
  let per_batch = 800 and reps = 3 in
  let batches = max 2 (seconds * 5 / 2) in
  let inp =
    make_inputs ~dataset ~scale ~seed ~mixes:4 ~n1:5000 ~n2:0 ~n3:1000 ~n_batches:batches
  in
  log "inputs ready: %d query strings, %d bytes of XML, %d batches" (Array.length inp.mix)
    (String.length inp.text) (Array.length inp.batches);
  Gc.compact ();
  reset_peak_rss ();
  let runs = ref [] in
  let setup_once () =
    Gc.compact ();
    let s, _, times = setup_serve ~tr:None ~req:0 inp in
    runs := (times, reference_ns ()) :: !runs;
    s
  in
  (* The schedule is deterministic, so it runs [reps] times on fresh
     servers and each batch cycle keeps its fastest time. Set-up runs 3
     times before each repetition (the last one serves it) and 3 times
     after the last, one server alive at a time. *)
  let best = Array.make batches max_int in
  let publish_ns = Ivec.create () and refs = Ivec.create () in
  let failed = ref 0 and attempted = ref 0 and mismatches = ref 0 and checked = ref 0 in
  let queries = ref 0 and elapsed = ref 0 in
  let last = ref None and first_obs = ref None and peak = ref 0. in
  (* the first schedule goes through the oracle; every later one must
     match it query for query, in generation and answer *)
  let check sch =
    match !first_obs with
    | None ->
      first_obs := Some sch.obs;
      serve_oracle inp sch
    | Some o ->
      let m = ref 0 and c = ref 0 in
      Array.iteri
        (fun i g ->
          if g >= 0 || sch.obs.gen.(i) >= 0 then begin
            incr c;
            if g <> sch.obs.gen.(i) || o.ck.(i) <> sch.obs.ck.(i) || o.len.(i) <> sch.obs.len.(i)
            then incr m
          end)
        o.gen;
      (!c, !m)
  in
  for rep = 1 to reps do
    ignore (setup_once () : Server.t);
    ignore (setup_once () : Server.t);
    let server = setup_once () in
    Gc.compact ();
    let sch = serve_schedule server inp ~batches ~per_batch ~traced:false ~gc:None in
    if rep = 1 then peak := peak_rss_mb ();
    Array.iteri (fun b t -> best.(b) <- min best.(b) t) (cycles sch);
    for i = 0 to Ivec.length sch.refs - 1 do
      Ivec.push refs (Ivec.get sch.refs i)
    done;
    for i = 0 to Ivec.length sch.publish_ns - 1 do
      Ivec.push publish_ns (Ivec.get sch.publish_ns i)
    done;
    queries := !queries + sch.reader.r_queries;
    elapsed := !elapsed + sch.elapsed_ns;
    let c, m = check sch in
    checked := !checked + c;
    mismatches := !mismatches + m;
    failed := !failed + sch.reader.r_failed + m;
    attempted := !attempted + sch.reader.r_queries + batches;
    log "repetition %d: %d queries in %.0f ms, reader parked %.1f ms; oracle %d checked, %d mismatches"
      rep sch.reader.r_queries (ns_to_ms sch.elapsed_ns) (ns_to_ms sch.reader.r_wait_ns) c m;
    if rep = reps then last := Some (server, sch)
  done;
  let server, sch = Option.get !last in
  let qps = best_rate ~per_unit:per_batch best in
  let mean_qps = float_of_int !queries /. ns_to_s !elapsed in
  log "schedule: unscaled mean %.1f/s, scaled best-cycle %.1f/s" mean_qps qps;
  let peak = !peak in
  let window, (nodes, edges) = final_generation_window server inp ~n:2000 in
  let index_bytes, data_edges =
    let live = Self_tuning.apex (Server.tuner server) in
    let pool = Buffer_pool.create (Pager.create ~page_size:8192 ()) ~capacity:1024 in
    Apex.materialize live pool;
    match Apex.store live with
    | Some store -> (snd (Extent_store.compression_stats store), G.n_edges (Apex.graph live))
    | None -> (0, G.n_edges (Apex.graph live))
  in
  let drained = Server.feedback_drained server and dropped = Server.feedback_dropped server in
  let epochs_freed = Server.epochs_freed server and publishes = Server.publishes server in
  let generation = Server.generation server in
  let refreshes = Self_tuning.refreshes (Server.tuner server) in
  let lat = latency_metrics sch.reader.r_lat in
  let publish_sorted = Ivec.sorted publish_ns in
  let publish_samples = Ivec.length publish_ns in
  let gc_metrics_untraced =
    gc_metrics ~queries:sch.reader.r_queries ~majors:sch.majors sch.reader.r_gc0 sch.reader.r_gc1
  in
  (* the server and the schedules are dead from here on *)
  last := None;
  for _ = 1 to 3 do
    ignore (setup_once () : Server.t)
  done;
  let steps, wall_setup = setup_summary !runs in
  let setups = List.length !runs in
  setup_log !runs steps;
  let end_to_end =
    [ metric ~samples:setups "setup_s" "s" steps.(0);
      metric ~samples:!queries "qps" "1/s" qps;
      metric "index_bytes_per_edge" "B/edge" (ratio index_bytes data_edges);
      metric "peak_rss_mb" "MB" peak ]
  in
  (* traced: a fresh server over the same batches, spans
     around every call, GC pauses per domain; checked like the untraced
     schedule *)
  let traced =
    if not trace then None
    else begin
      let wtr = Spans.create (Domain.self () :> int) in
      let s, _, _ = setup_serve ~tr:(Some wtr) ~req:0 inp in
      let gc = Gc_pauses.create () in
      let tsch =
        serve_schedule s inp ~batches ~per_batch ~traced:true ~gc:(Some gc)
      in
      Gc_pauses.close gc;
      let tchecked, tmismatches = check tsch in
      log "traced oracle gate: %d checked, %d mismatches" tchecked tmismatches;
      Some (wtr, gc, tsch, tmismatches)
    end
  in
  let traced_failed, traced_attempted, traced_mismatches =
    match traced with
    | Some (_, _, t, m) -> (t.reader.r_failed + m, t.reader.r_queries + Ivec.length t.publish_ns, m)
    | None -> (0, 0, 0)
  in
  let failed = !failed + traced_failed and attempted = !attempted + traced_attempted in
  let mismatches = !mismatches + traced_mismatches and checked = !checked in
  let find n = List.find (fun m -> String.equal m.m_name n) lat in
  let per_layer () =
    let _, gc, tsch, _ = match traced with Some x -> x | None -> assert false in
    let r = tsch.reader in
    let per_q k v = ns_to_us v /. float_of_int (max 1 (Ivec.length r.r_lat.(k))) in
    let pause_total, pause_max = Gc_pauses.summary gc ~lo:tsch.t_start ~hi:tsch.t_end in
    (* only the writer (ring 0, the main domain) and the reader run *)
    let in_publish = Gc_pauses.overlap gc ~except:0 tsch.publish_windows in
    let traced_qps = best_rate ~per_unit:per_batch (cycles tsch) in
    let copy = median_ns tsch.copy_ns in
    step_metrics ~samples:setups steps
    @ [ metric "apex.summary_nodes" "count" (float_of_int nodes);
        metric "apex.summary_edges" "count" (float_of_int edges) ]
    @ List.init 3 (fun k ->
          metric ~samples:(Ivec.length r.r_lat.(k))
            ("pathexpr." ^ qnames.(k) ^ ".parse_us") "us" (per_q k r.r_parse_ns.(k)))
    @ List.init 3 (fun k ->
          metric ~samples:(Ivec.length r.r_lat.(k)) (qnames.(k) ^ ".eval_us") "us"
            (per_q k r.r_eval_ns.(k)))
    @ window_metrics window
    @ gc_metrics_untraced
    @ [ metric "gc.pause_total_ms" "ms" (ns_to_ms pause_total);
        metric "gc.pause_max_ms" "ms" (ns_to_ms pause_max);
        metric "gc.reader_pause_in_publish_ms" "ms" (ns_to_ms in_publish);
        metric ~samples:r.r_queries "bench.traced_qps" "1/s" traced_qps;
        metric "bench.trace_overhead_ratio" "ratio" (traced_qps /. qps);
        metric ~samples:(Ivec.length refs) "bench.reference_ms" "ms" (reference_ms refs);
        metric ~samples:!queries "bench.wall_qps" "1/s" mean_qps;
        metric ~samples:setups "bench.wall_setup_s" "s" wall_setup;
        metric "bench.fail_ratio" "ratio" (ratio failed attempted);
        find "q1_p50_us"; find "q1_p99_us"; find "q3_p50_us"; find "q3_p99_us";
        metric ~samples:publish_samples "publish_p50_ms" "ms"
          (ns_to_ms (percentile publish_sorted 0.5));
        metric ~samples:publish_samples "publish_p90_ms" "ms"
          (ns_to_ms (percentile publish_sorted 0.9));
        metric ~samples:(Ivec.length tsch.copy_ns) "server.epoch_copy_ms" "ms" (ns_to_ms copy);
        metric ~samples:(Ivec.length tsch.publish_ns) "server.update_ms" "ms"
          (ns_to_ms (median_ns tsch.publish_ns - copy));
        metric ~samples:(Ivec.length tsch.refresh_ns) "server.refresh_ms" "ms"
          (ns_to_ms (median_ns tsch.refresh_ns));
        metric ~samples:(Ivec.length tsch.drain_ns) "server.drain_ms" "ms"
          (ns_to_ms (median_ns tsch.drain_ns));
        metric "server.feedback_dropped_ratio" "ratio" (ratio dropped (drained + dropped));
        metric "server.epochs_freed" "count" (float_of_int epochs_freed);
        metric ~samples:r.r_queries "server.query_overhead_us" "us"
          (ns_to_us r.r_overhead_ns /. float_of_int (max 1 r.r_queries));
        metric "bench.barrier_wait_ms" "ms" (ns_to_ms r.r_wait_ns) ]
  in
  let fingerprint =
    [ ("apex.summary_nodes", Json.Num (float_of_int nodes));
      ("apex.summary_edges", Json.Num (float_of_int edges));
      ("server.publishes", Json.Num (float_of_int publishes));
      ("server.generation", Json.Num (float_of_int generation));
      ("server.epochs_freed", Json.Num (float_of_int epochs_freed));
      ("server.feedback_drained", Json.Num (float_of_int drained));
      ("server.feedback_dropped", Json.Num (float_of_int dropped));
      ("server.refreshes", Json.Num (float_of_int refreshes));
      ("index_bytes", Json.Num (float_of_int index_bytes));
      ("oracle.checked", Json.Num (float_of_int checked)) ]
    @ window_fingerprint window
  in
  let artifacts =
    match traced with
    | None -> None
    | Some (wtr, gc, tsch, _) ->
      let tables =
        wtr :: (match tsch.writer_spans with Some t -> [ t ] | None -> [])
        @ match tsch.reader.r_spans with Some t -> [ t ] | None -> []
      in
      let instants = List.map (fun (ts, gen) -> ("publish", ts, gen)) tsch.publish_marks in
      Some
        (fun prefix ->
          write_trace ~path:(prefix ^ ".trace.json") ~tables ~gc:(Some gc) ~instants;
          let oc = open_out (prefix ^ ".selftime.txt") in
          output_string oc (self_time_table ~gc tables);
          close_out oc)
  in
  { correct = mismatches = 0; attempted; failed;
    metrics = (if trace then per_layer () else end_to_end);
    fingerprint; artifacts }

(* --- main ------------------------------------------------------------------ *)

(* Every per-layer metric, in report order. A workload that never calls a
   layer reports 0 for it (no work done, no time spent). *)
let per_layer_units =
  [ ("xml.parse_s", "s"); ("graph.encode_s", "s"); ("storage.table_build_s", "s");
    ("apex.build_s", "s"); ("apex.refresh_s", "s"); ("apex.materialize_s", "s");
    ("apex.summary_nodes", "count"); ("apex.summary_edges", "count") ]
  @ List.map (fun q -> ("pathexpr." ^ q ^ ".parse_us", "us")) [ "q1"; "q2"; "q3" ]
  @ List.concat_map
      (fun q ->
        [ (q ^ ".eval_us", "us"); (q ^ ".hash_probes", "count");
          (q ^ ".index_node_visits", "count"); (q ^ ".join_edges", "count");
          (q ^ ".result_nodes", "count"); (q ^ ".join_yield", "ratio");
          (q ^ ".extent_edges", "count"); (q ^ ".extent_bytes", "B");
          (q ^ ".blocks_decoded", "count"); (q ^ ".block_skip_ratio", "ratio");
          (q ^ ".extent_cache_hit_rate", "ratio") ])
      [ "q1"; "q2"; "q3" ]
  @ [ ("q3.table_pages", "count"); ("storage.pages_written", "count");
      ("storage.disk_reads_per_query", "count"); ("storage.pool_hit_rate", "ratio");
      ("q1_p50_us", "us"); ("q1_p99_us", "us"); ("q2_p50_us", "us"); ("q2_p90_us", "us");
      ("q3_p50_us", "us"); ("q3_p99_us", "us"); ("publish_p50_ms", "ms"); ("publish_p90_ms", "ms");
      ("server.epoch_copy_ms", "ms"); ("server.update_ms", "ms");
      ("server.refresh_ms", "ms"); ("server.drain_ms", "ms");
      ("server.feedback_dropped_ratio", "ratio"); ("server.epochs_freed", "count");
      ("server.query_overhead_us", "us"); ("bench.barrier_wait_ms", "ms");
      ("gc.minor_words_per_query", "words"); ("gc.promoted_words_per_query", "words");
      ("gc.major_collections", "count"); ("gc.pause_total_ms", "ms"); ("gc.pause_max_ms", "ms");
      ("gc.reader_pause_in_publish_ms", "ms"); ("bench.traced_qps", "1/s");
      ("bench.trace_overhead_ratio", "ratio"); ("bench.reference_ms", "ms"); ("bench.wall_qps", "1/s");
      ("bench.wall_setup_s", "s"); ("bench.fail_ratio", "ratio") ]

let complete_per_layer ms =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> String.equal m.m_name name) ms with
      | Some m ->
        if not (String.equal m.m_unit unit) then failwith ("unit mismatch for " ^ name);
        m
      | None -> metric name unit 0.)
    per_layer_units

(* trace artifacts; run.py points Runtime_events at the same directory *)
let out_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: bench.exe --workload lookup-graph|lookup-tree|serve-update --seed N --seconds S \
     --trace 0|1 [--scale F]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let scale = ref 1.0 in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; args rest
    | "--trace" :: v :: rest -> trace := int_of_string v; args rest
    | "--scale" :: v :: rest -> scale := float_of_string v; args rest
    | [] -> ()
    | _ -> usage ()
  in
  (match args (List.tl (Array.to_list Sys.argv)) with
   | () -> ()
   | exception Failure _ -> usage ());
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let scale = !scale in
  let o =
    match !workload with
    | "lookup-graph" ->
      run_lookup ~dataset:"Ged02" ~pool_pages:1024 ~scale ~seed ~seconds ~trace
    | "lookup-tree" ->
      run_lookup ~dataset:"shakes_11" ~pool_pages:64 ~scale ~seed ~seconds ~trace
    | "serve-update" -> run_serve ~dataset:"Ged02" ~scale ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let metrics =
    if trace then complete_per_layer o.metrics
    else List.filter (fun m -> List.mem m.m_name end_to_end_names) o.metrics
  in
  (match o.artifacts with
   | Some write ->
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let prefix = Filename.concat out_dir (Printf.sprintf "%s-s%d" !workload seed) in
     write prefix;
     prerr_string (Printf.sprintf "trace artifacts: %s.trace.json, %s.selftime.txt\n" prefix prefix)
   | None -> ());
  print_endline ("REPORT " ^ Json.to_string (report_json ~workload:!workload ~seed ~trace o.metrics));
  print_endline
    ("FINGERPRINT "
    ^ Json.to_string
        (Json.Obj
           ([ ("workload", Json.Str !workload); ("seed", Json.Num (float_of_int seed)) ]
           @ o.fingerprint)));
  print_endline
    (Json.to_string (result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed metrics));
  if not o.correct then exit 1
