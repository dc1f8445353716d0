(* SLO monitor: per-objective latency targets (quantile + threshold)
   evaluated over a sliding window of log2 histograms.

   Each objective owns a ring of [subwindows] sub-window histograms; the
   hot side ([observe]) records into the current sub-window — one
   Histogram.record, no allocation beyond the histogram's own stores. The
   cold side ([advance], called by the server writer once per drain or on
   a timer) merges the ring into one window, estimates the target
   quantile, compares against the threshold, updates burn-rate counters,
   records a [Trace.Slo_breach] instant per breached objective (an
   always-on kind, so an incident file keeps it), and rotates
   the ring (the oldest sub-window is replaced by a fresh histogram). The
   effective window therefore covers the last [subwindows] advances, and
   one advance retires exactly 1/subwindows of the evidence — the standard
   sliding-window approximation.

   The same drained samples feed a per-query latency watchdog: [observe]
   compares each one against the ceiling given at [create], and a sample
   over it counts a trip and records an always-on [Trace.Watchdog_trip].

   Low-count windows are handled explicitly: an empty window yields
   [st_estimate = None] and never breaches ("no data" is not "zero
   latency"); a 1-sample window reports that sample exactly (the
   histogram's min/max clamp collapses the bucket midpoint onto the single
   observation).

   Burn rate follows the error-budget convention: the fraction of window
   samples over the threshold, divided by the budgeted fraction [1 - q].
   A burn rate of 1.0 means the window spends its budget exactly; 2.0
   means twice as fast. "Over the threshold" is counted from the bucket
   walk — samples in buckets strictly above the threshold's bucket — so
   it under-counts by at most the threshold's own factor-of-2 bucket,
   consistent with every other quantile estimate in this layer.

   All mutation happens on the caller's (single writer) side; the monitor
   is reached from Server.t, hence shared, hence the "slo" guard tag on
   its mutable state for the L8 domain-safety pass. *)

type objective = {
  slo_name : string;
  slo_quantile : float;  (* target quantile in (0,1), e.g. 0.99 *)
  slo_threshold : float;  (* seconds *)
}

type cell = {
  c_objective : objective;
  c_windows : Metrics.histogram array;  (* sub-window ring *)
  mutable c_breaches : int;  (* windows evaluated as breached *)
}

(* sub-windows per objective: the window covers the last six advances *)
let subwindows = 6

type t = {
  watchdog : float;  (* per-query ceiling, seconds; infinity = disarmed *)
  cells : cell array; [@apex.guarded "slo"]
  mutable cur : int; [@apex.guarded "slo"]
  mutable advances : int; [@apex.guarded "slo"]
  mutable trips : int; [@apex.guarded "slo"]
}
[@@apex.shared]

let create ?(watchdog = Float.infinity) objectives =
  if not (watchdog > 0.) then invalid_arg "Slo.create: watchdog must be positive";
  List.iter
    (fun o ->
      if not (o.slo_quantile > 0. && o.slo_quantile < 1.) then
        invalid_arg
          (Printf.sprintf "Slo.create: %s: quantile must be in (0,1)"
             o.slo_name);
      if not (o.slo_threshold > 0.) then
        invalid_arg
          (Printf.sprintf "Slo.create: %s: threshold must be positive"
             o.slo_name))
    objectives;
  { watchdog;
    cells =
      Array.of_list
        (List.map
           (fun o ->
             { c_objective = o;
               c_windows =
                 Array.init subwindows (fun _ -> Metrics.Histogram.create ());
               c_breaches = 0 })
           objectives);
    cur = 0;
    advances = 0;
    trips = 0 }

let observe t i ~generation latency =
  Metrics.Histogram.record t.cells.(i).c_windows.(t.cur) latency;
  if latency > t.watchdog then begin
    t.trips <- t.trips + 1;
    Trace.record Trace.Watchdog_trip ~a:generation ~b:(int_of_float (latency *. 1e9));
    true
  end
  else false

type status = {
  st_name : string;
  st_quantile : float;
  st_threshold : float;
  st_samples : int;  (* samples in the merged window *)
  st_estimate : float option;  (* [None]: empty window, no verdict *)
  st_burn : float;  (* error-budget burn rate over the window *)
  st_breached : bool;
  st_breaches : int;  (* cumulative breached windows *)
  st_windows : int;  (* cumulative windows evaluated *)
}

let merged_window c =
  Array.fold_left Metrics.Histogram.merge (Metrics.Histogram.create ())
    c.c_windows

(* samples in buckets strictly above the threshold's bucket *)
let over_threshold merged threshold =
  let bt = Metrics.Histogram.bucket_of threshold in
  let counts = Metrics.Histogram.bucket_counts merged in
  let over = ref 0 in
  for b = bt + 1 to Array.length counts - 1 do
    over := !over + counts.(b)
  done;
  !over

let evaluate_cell t c =
  let o = c.c_objective in
  let merged = merged_window c in
  let samples = Metrics.Histogram.count merged in
  let estimate = Metrics.Histogram.quantile_opt merged o.slo_quantile in
  let breached =
    match estimate with
    | Some e -> e > o.slo_threshold
    | None -> false
  in
  let burn =
    if samples = 0 then 0.
    else
      let bad = over_threshold merged o.slo_threshold in
      Float.of_int bad /. Float.of_int samples /. (1. -. o.slo_quantile)
  in
  { st_name = o.slo_name;
    st_quantile = o.slo_quantile;
    st_threshold = o.slo_threshold;
    st_samples = samples;
    st_estimate = estimate;
    st_burn = burn;
    st_breached = breached;
    st_breaches = c.c_breaches;
    st_windows = t.advances }

let advance t =
  t.advances <- t.advances + 1;
  let statuses =
    Array.mapi
      (fun i c ->
        let st = evaluate_cell t c in
        if st.st_breached then begin
          c.c_breaches <- c.c_breaches + 1;
          Trace.record ~note:c.c_objective.slo_name Trace.Slo_breach ~a:i
            ~b:(int_of_float (st.st_burn *. 1000.))
        end;
        { st with st_breaches = c.c_breaches; st_windows = t.advances })
      t.cells
  in
  t.cur <- (t.cur + 1) mod subwindows;
  Array.iter
    (fun c -> c.c_windows.(t.cur) <- Metrics.Histogram.create ())
    t.cells;
  Array.to_list statuses

let status_json st =
  Json.Obj
    [ ("name", Json.Str st.st_name);
      ("quantile", Json.Num st.st_quantile);
      ("threshold", Json.Num st.st_threshold);
      ("samples", Json.Num (Float.of_int st.st_samples));
      ( "estimate",
        match st.st_estimate with None -> Json.Null | Some e -> Json.Num e );
      ("burn_rate", Json.Num st.st_burn);
      ("breached", Json.Bool st.st_breached);
      ("breaches", Json.Num (Float.of_int st.st_breaches));
      ("windows", Json.Num (Float.of_int st.st_windows)) ]

(* Evaluated without rotating or counting: the introspection view. *)
let to_json t =
  Json.Obj
    [ ("subwindows", Json.Num (Float.of_int subwindows));
      ("advances", Json.Num (Float.of_int t.advances));
      ( "watchdog_seconds",
        if Float.is_finite t.watchdog then Json.Num t.watchdog else Json.Null );
      ("watchdog_trips", Json.Num (Float.of_int t.trips));
      ( "objectives",
        Json.Arr (Array.to_list (Array.map (fun c -> status_json (evaluate_cell t c)) t.cells))
      ) ]

let default_objectives =
  [ { slo_name = "q1"; slo_quantile = 0.99; slo_threshold = 0.05 };
    { slo_name = "q2"; slo_quantile = 0.99; slo_threshold = 0.05 };
    { slo_name = "q3"; slo_quantile = 0.99; slo_threshold = 0.05 } ]
