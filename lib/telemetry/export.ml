(* The Chrome trace_event exporter for the event rings (load a saved file
   via chrome://tracing or https://ui.perfetto.dev, one thread per
   domain). It reads the live Trace rings in sequence order; the reader
   lets a separate process (apexctl) summarize a saved trace, and the
   trace contract (schemas/trace_schema.json) checks it as a whole
   document through Schema.validate_file. *)

(* --- writing --- *)

(* The one span encoder: the trace file's events and the incident file's
   events and span tail all come from here. [args] carries what the
   Chrome fields do not: the global sequence number, both arguments, the
   note, and [open] for a span that was never closed. *)
let span_json (s : Trace.span) =
  let num i = Json.Num (Float.of_int i) in
  let us t = Json.Num (t *. 1e6) in
  let phase =
    if s.is_event then [ ("ph", Json.Str "i"); ("s", Json.Str "t"); ("ts", us s.start) ]
    else
      let dur = match s.stop with Some stop -> stop -. s.start | None -> 0. in
      [ ("ph", Json.Str "X"); ("ts", us s.start); ("dur", us dur) ]
  in
  let args =
    List.concat
      [ [ ("seq", num s.seq); ("arg", num s.arg) ];
        (if s.arg2 = 0 then [] else [ ("arg2", num s.arg2) ]);
        (if s.note = "" then [] else [ ("note", Json.Str s.note) ]);
        (if (not s.is_event) && s.stop = None then [ ("open", Json.Bool true) ] else []) ]
  in
  Json.Obj
    ([ ("name", Json.Str (Trace.kind_name s.kind)); ("cat", Json.Str "apex") ]
    @ phase
    @ [ ("pid", num 1); ("tid", num s.domain); ("args", Json.Obj args) ])

(* Retained always-on records, and the last [max_incident_spans] other
   records, both oldest first. *)
let max_incident_spans = 256

let incident_records () =
  let events = ref [] and spans = Queue.create () in
  Trace.iter_spans (fun s ->
      if Trace.always_on s.kind then events := span_json s :: !events
      else begin
        Queue.add s spans;
        if Queue.length spans > max_incident_spans then ignore (Queue.pop spans)
      end);
  (List.rev !events, List.of_seq (Seq.map span_json (Queue.to_seq spans)))

let save_chrome path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc {|{"traceEvents":[|};
      let first = ref true in
      Trace.iter_spans (fun s ->
          if !first then first := false else output_string oc ",\n";
          output_string oc (Json.to_string (span_json s)));
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

(* One Chrome event back to a record: microseconds to seconds, ph "i" an
   instant event (no dur), ph "X" a span. *)
let record_of_json j =
  let args = Option.value (Json.member "args" j) ~default:(Json.Obj []) in
  let num key o = Option.bind (Json.member key o) Json.to_float in
  let str key o = Option.bind (Json.member key o) Json.to_str in
  match (str "name" j, str "ph" j, num "ts" j, num "seq" args, num "arg" args) with
  | Some name, Some (("X" | "i") as ph), Some ts, Some seq, Some arg ->
    Ok
      { name;
        is_event = ph = "i";
        seq = int_of_float seq;
        ts = ts *. 1e-6;
        dur = Option.value (num "dur" j) ~default:0. *. 1e-6;
        arg = int_of_float arg;
        note = Option.value (str "note" args) ~default:"" }
  | _ -> Error "missing or mistyped field (name/ph/ts/args.seq/args.arg)"

let read_trace path =
  Result.bind (Json.parse_file path) (fun doc ->
      match Option.bind (Json.member "traceEvents" doc) Json.to_list with
      | None -> Error (path ^ ": no \"traceEvents\" array")
      | Some events ->
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest ->
            (match record_of_json e with
             | Error m -> Error (Printf.sprintf "%s: traceEvents[%d]: %s" path i m)
             | Ok r -> go (i + 1) (r :: acc) rest)
        in
        go 0 [] events)

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
