(* The flight recorder's incident side, over the always-on Trace kinds.

   The server's operational records — queries drained, update batches,
   drains, epochs published/retired, refreshes, rollbacks, SLO breaches,
   watchdog trips — are Trace kinds that stay recorded while tracing is
   off, so the last seconds of server history are always in the Trace
   rings. What this module adds is the response when something goes
   wrong: a latency watchdog over drained observations, a metric baseline
   captured at [create], and [dump], which writes the retained
   operational records, the tail of the other trace records (when
   tracing is on), and metric deltas against the baseline into one
   incident file. Its JSON layout is contracted by
   schemas/incident_schema.json (the same mini-contract style as the
   trace schema) and checked by [validate_file] / `apexctl
   incident-dump`.

   A Flight.t hangs off Server.t and is mutated only by the single writer
   (watchdog, dump counters) — shared root, "flight" guard tag for L8. *)

type t = {
  t0 : int;  (* monotonic ns at [create] *)
  mutable watchdog_ns : int; [@apex.guarded "flight"]  (* 0 = no watchdog *)
  mutable trips : int; [@apex.guarded "flight"]
  mutable dumps : int; [@apex.guarded "flight"]
  baseline : (string * float) list; [@apex.guarded "flight"]
  metrics : Metrics.t option;
}
[@@apex.shared]

(* One float per metric at snapshot time: counters and gauges as their
   value, histograms as their sample count — enough to show "what moved"
   between baseline and incident. *)
let metric_levels m =
  List.map
    (fun (name, v) ->
      match v with
      | Metrics.Count n -> (name, Float.of_int n)
      | Metrics.Level l -> (name, l)
      | Metrics.Dist h -> (name, Float.of_int (Metrics.Histogram.count h)))
    (Metrics.snapshot m)

let create ?metrics () =
  { t0 = Trace.now_ns ();
    watchdog_ns = 0;
    trips = 0;
    dumps = 0;
    baseline = (match metrics with Some m -> metric_levels m | None -> []);
    metrics }

(* --- watchdog --- *)

let set_watchdog t ~threshold =
  if not (threshold > 0.) then
    invalid_arg "Flight.set_watchdog: threshold must be positive";
  t.watchdog_ns <- int_of_float (threshold *. 1e9)

(* Hot (per drained observation): compare an integer-ns latency against
   the threshold; on trip, count it and record a Watchdog_trip. Returns
   whether it tripped so the caller can decide to dump. *)
let check_latency t ~generation ~latency_ns =
  if t.watchdog_ns > 0 && latency_ns > t.watchdog_ns then begin
    t.trips <- t.trips + 1;
    Trace.record Trace.Watchdog_trip ~a:generation ~b:latency_ns;
    true
  end
  else false

let trips t = t.trips
let dumps t = t.dumps

(* --- incident dump --- *)

let max_trace_spans = 256

let event_json (s : Trace.span) =
  Json.Obj
    [ ("kind", Json.Str (Trace.kind_name s.kind));
      ("seq", Json.Num (Float.of_int s.seq));
      ("t", Json.Num s.start);
      ("a", Json.Num (Float.of_int s.arg));
      ("b", Json.Num (Float.of_int s.arg2)) ]

(* Retained always-on records as events, and the last [max_trace_spans]
   other records as spans, both oldest first. *)
let evidence () =
  let events = ref [] and spans = Queue.create () in
  Trace.iter_spans (fun s ->
      if Trace.always_on s.kind then events := event_json s :: !events
      else begin
        Queue.add s spans;
        if Queue.length spans > max_trace_spans then ignore (Queue.pop spans)
      end);
  ( List.rev !events,
    List.of_seq (Seq.map (Export.span_json Export.Jsonl) (Queue.to_seq spans)) )

(* Union of baseline and current metric names: names new since the
   baseline get base 0; names that vanished from the registry report
   now = base (delta 0 — no evidence they moved). *)
let metric_deltas t =
  match t.metrics with
  | None -> []
  | Some m ->
    let now = metric_levels m in
    let base_of name =
      Option.value (List.assoc_opt name t.baseline) ~default:0.
    in
    let now_names = List.map fst now in
    let stale =
      List.filter (fun (name, _) -> not (List.mem name now_names)) t.baseline
    in
    List.map (fun (name, v) -> (name, base_of name, v)) now
    @ List.map (fun (name, v) -> (name, v, v)) stale

let incident_json ?(reason = "on-demand") ?(slo = Json.Null) t =
  let st = Trace.stats () in
  let events, spans = evidence () in
  Json.Obj
    [ ( "incident",
        Json.Obj
          [ ("schema", Json.Str "apex-incident-v1");
            ("reason", Json.Str reason);
            ("uptime_seconds", Json.Num (Float.of_int (Trace.now_ns () - t.t0) *. 1e-9));
            ("recorded", Json.Num (Float.of_int st.Trace.recorded));
            ("retained", Json.Num (Float.of_int st.Trace.retained));
            ("watchdog_trips", Json.Num (Float.of_int t.trips));
            ("dumps", Json.Num (Float.of_int t.dumps));
            (* the always-on kinds cannot be switched off *)
            ("armed", Json.Bool true) ] );
      ("events", Json.Arr events);
      ("spans", Json.Arr spans);
      ( "metrics",
        Json.Arr
          (List.map
             (fun (name, base, now) ->
               Json.Obj
                 [ ("name", Json.Str name);
                   ("base", Json.Num base);
                   ("now", Json.Num now);
                   ("delta", Json.Num (now -. base)) ])
             (metric_deltas t)) );
      ("slo", slo) ]

let dump ?reason ?slo t path =
  t.dumps <- t.dumps + 1;
  let json = incident_json ?reason ?slo t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* --- incident-file validation (mini-contract, like the trace schema) --- *)

let validate ~schema json =
  let check (section, shape_name) =
    match (Json.member shape_name schema, Json.member section json) with
    | None, _ -> [ Printf.sprintf "schema: missing %S section" shape_name ]
    | _, None -> [ Printf.sprintf "missing %S section" section ]
    | Some shape, Some j ->
      let shape = Schema.shape_of_json shape in
      let mistyped expected =
        [ Printf.sprintf "%s: is %s, expected %s" section (Json.type_name j) expected ]
      in
      (match (section, j) with
       | "incident", Json.Obj _ -> Schema.check shape ~ctx:section j
       | "incident", _ -> mistyped "object"
       | _, Json.Arr items -> Schema.check_items shape ~ctx:section items
       | _ -> mistyped "array")
  in
  match json with
  | Json.Obj _ ->
    (match
       List.concat_map check
         [ ("incident", "incident"); ("events", "event"); ("spans", "span");
           ("metrics", "metric") ]
     with
     | [] -> Ok ()
     | errors -> Error errors)
  | j -> Error [ Printf.sprintf "top level is %s, expected object" (Json.type_name j) ]

let validate_file ~schema_path path =
  let load p = Result.map_error (fun e -> [ e ]) (Json.parse_file p) in
  Result.bind (load schema_path) (fun schema -> Result.bind (load path) (validate ~schema))
