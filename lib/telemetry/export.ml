(* Exporters for the event rings: JSONL event log (one JSON object per
   line, grep/jq-friendly, append-safe) and Chrome trace_event JSON
   (load via chrome://tracing or https://ui.perfetto.dev, one thread per
   domain). Both read the live Trace rings in sequence order; the JSONL
   reader and schema validator let a separate process (apexctl) audit and
   summarize a saved trace. *)

(* --- writing --- *)

type format = Jsonl | Chrome

(* The one span encoder: JSONL lines, Chrome trace events and the
   incident file's events and span tail all come from here. *)
let span_json format (s : Trace.span) =
  let name = Json.Str (Trace.kind_name s.kind) in
  let num i = Json.Num (Float.of_int i) in
  let dur = match s.stop with Some stop -> stop -. s.start | None -> 0. in
  let note = if s.note = "" then [] else [ ("note", Json.Str s.note) ] in
  match format with
  | Jsonl ->
    Json.Obj
      (List.concat
         [ [ ("type", Json.Str (if s.is_event then "event" else "span"));
             ("name", name);
             ("seq", num s.seq);
             ("domain", num s.domain);
             ("ts", Json.Num s.start);
             ("dur", Json.Num dur);
             ("arg", num s.arg) ];
           (if s.arg2 = 0 then [] else [ ("arg2", num s.arg2) ]);
           note;
           (if (not s.is_event) && s.stop = None then [ ("open", Json.Bool true) ]
            else []) ])
  | Chrome ->
    let us t = Json.Num (t *. 1e6) in
    let phase =
      if s.is_event then [ ("ph", Json.Str "i"); ("s", Json.Str "t"); ("ts", us s.start) ]
      else [ ("ph", Json.Str "X"); ("ts", us s.start); ("dur", us dur) ]
    in
    Json.Obj
      ([ ("name", name); ("cat", Json.Str "apex") ]
      @ phase
      @ [ ("pid", num 1);
          ("tid", num s.domain);
          ("args", Json.Obj ([ ("seq", num s.seq); ("arg", num s.arg) ] @ note)) ])

(* Retained always-on records, and the last [max_incident_spans] other
   records, both oldest first. *)
let max_incident_spans = 256

let incident_records () =
  let events = ref [] and spans = Queue.create () in
  Trace.iter_spans (fun s ->
      if Trace.always_on s.kind then events := span_json Jsonl s :: !events
      else begin
        Queue.add s spans;
        if Queue.length spans > max_incident_spans then ignore (Queue.pop spans)
      end);
  ( List.rev !events,
    List.of_seq (Seq.map (span_json Jsonl) (Queue.to_seq spans)) )

let with_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let save_jsonl path =
  with_file path (fun oc ->
      Trace.iter_spans (fun s ->
          output_string oc (Json.to_string (span_json Jsonl s));
          output_char oc '\n'))

let save_chrome path =
  with_file path (fun oc ->
      output_string oc {|{"traceEvents":[|};
      let first = ref true in
      Trace.iter_spans (fun s ->
          if !first then first := false else output_string oc ",\n";
          output_string oc (Json.to_string (span_json Chrome s)));
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")

(* --- reading --- *)

type record = {
  name : string;
  is_event : bool;
  seq : int;
  ts : float;
  dur : float;
  arg : int;
  note : string;
}

(* non-blank lines with their physical (1-based) line numbers *)
let read_lines path =
  Result.map
    (fun text ->
      List.filter (fun (_, line) -> String.trim line <> "")
        (List.mapi (fun i line -> (i + 1, line)) (String.split_on_char '\n' text)))
    (Json.read_file path)

let record_of_json j =
  let str key = Option.bind (Json.member key j) Json.to_str in
  let num key = Option.bind (Json.member key j) Json.to_float in
  match (str "type", str "name", num "seq", num "ts", num "dur", num "arg") with
  | Some typ, Some name, Some seq, Some ts, Some dur, Some arg ->
    Ok
      { name;
        is_event = typ = "event";
        seq = int_of_float seq;
        ts;
        dur;
        arg = int_of_float arg;
        note = Option.value (str "note") ~default:"" }
  | _ -> Error "missing or mistyped field (type/name/seq/ts/dur/arg)"

let read_jsonl path =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (n, line) :: rest ->
      (match Result.bind (Json.parse line) record_of_json with
       | Error e -> Error (Printf.sprintf "line %d: %s" n e)
       | Ok r -> go (r :: acc) rest)
  in
  Result.bind (read_lines path) (go [])

let validate_jsonl ~schema_path path =
  match (Json.parse_file schema_path, read_lines path) with
  | Error e, _ | _, Error e -> Error [ e ]
  | Ok schema, Ok lines -> (
    match Json.member "jsonl" schema with
    | None -> Error [ Printf.sprintf "%s: no \"jsonl\" section" schema_path ]
    | Some section ->
      let shape = Schema.shape_of_json section in
      let check (n, line) =
        let ctx = Printf.sprintf "%s:%d" path n in
        match Json.parse line with
        | Error e -> [ Printf.sprintf "%s: %s" ctx e ]
        | Ok j -> Schema.check shape ~ctx j
      in
      (match List.concat_map check lines with
       | [] -> Ok (List.length lines)
       | errors -> Error errors))

(* --- aggregation over records (for apexctl stats) --- *)

let summarize records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if not r.is_event then begin
        let h =
          match Hashtbl.find_opt tbl r.name with
          | Some h -> h
          | None ->
            let h = Metrics.Histogram.create () in
            Hashtbl.add tbl r.name h;
            h
        in
        Metrics.Histogram.record h r.dur
      end)
    records;
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let event_totals records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if r.is_event then
        Hashtbl.replace tbl r.name
          (1 + Option.value (Hashtbl.find_opt tbl r.name) ~default:0))
    records;
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- human-readable percentile table --- *)

let pp_duration f =
  if f < 1e-6 then Printf.sprintf "%.0fns" (f *. 1e9)
  else if f < 1e-3 then Printf.sprintf "%.1fus" (f *. 1e6)
  else if f < 1. then Printf.sprintf "%.2fms" (f *. 1e3)
  else Printf.sprintf "%.3fs" f

(* Low-count windows are handled explicitly rather than letting the
   quantile degenerate: an empty histogram prints "-" in every value
   column (0 is a legal latency, absent data is not), and a 1-sample
   histogram reports that sample exactly for every percentile (the
   histogram's min/max clamp collapses the bucket midpoint onto the
   single observation). *)
let percentile_table entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %8s %10s %10s %10s %10s %10s\n" "phase" "count"
       "p50" "p90" "p99" "max" "total");
  List.iter
    (fun (name, h) ->
      let n = Metrics.Histogram.count h in
      let q p =
        match Metrics.Histogram.quantile_opt h p with
        | None -> "-"
        | Some v -> pp_duration v
      in
      let whole f = if n = 0 then "-" else pp_duration (f h) in
      Buffer.add_string buf
        (Printf.sprintf "%-16s %8d %10s %10s %10s %10s %10s\n" name n
           (q 0.5) (q 0.9) (q 0.99)
           (whole Metrics.Histogram.max_value)
           (whole Metrics.Histogram.sum)))
    entries;
  Buffer.contents buf

let event_table entries =
  let buf = Buffer.create 128 in
  List.iter
    (fun (name, n) ->
      Buffer.add_string buf (Printf.sprintf "%-20s %8d\n" name n))
    entries;
  Buffer.contents buf

(* --- Prometheus-style text exposition --- *)

(* One block per registry entry: counters and gauges as single samples,
   histograms as cumulative le-labeled buckets plus _sum/_count. Bucket
   upper bounds are the histogram's bucket edges
   (Metrics.Histogram.bucket_edge); only buckets up to the highest non-empty one
   are emitted, then "+Inf". Metric names are sanitized to the
   [a-zA-Z0-9_] alphabet and prefixed "apex_". *)

let exposition_name name =
  let sane =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name
  in
  "apex_" ^ sane

let exposition_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let exposition m =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, v) ->
      let pname = exposition_name name in
      match v with
      | Metrics.Count n ->
        line "# TYPE %s counter\n" pname;
        line "%s %d\n" pname n
      | Metrics.Level l ->
        line "# TYPE %s gauge\n" pname;
        line "%s %s\n" pname (exposition_num l)
      | Metrics.Dist h ->
        line "# TYPE %s histogram\n" pname;
        let counts = Metrics.Histogram.bucket_counts h in
        let top = ref (-1) in
        Array.iteri (fun b c -> if c > 0 then top := b) counts;
        let cum = ref 0 in
        for b = 0 to !top do
          cum := !cum + counts.(b);
          line "%s_bucket{le=\"%s\"} %d\n" pname
            (exposition_num (Metrics.Histogram.bucket_edge b))
            !cum
        done;
        line "%s_bucket{le=\"+Inf\"} %d\n" pname (Metrics.Histogram.count h);
        line "%s_sum %s\n" pname (exposition_num (Metrics.Histogram.sum h));
        line "%s_count %d\n" pname (Metrics.Histogram.count h))
    (Metrics.snapshot m);
  Buffer.contents buf

let save_exposition path m = with_file path (fun oc -> output_string oc (exposition m))
