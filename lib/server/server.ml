(* The serving layer: one writer domain, any number of reader domains.

   Readers pin the current epoch in the registry, evaluate against its
   frozen index, unpin, and push what they ran into a bounded feedback
   buffer. The writer — the only domain allowed to call [apply] /
   [force_refresh] / [drain_feedback] — drains that buffer into the
   self-tuning query log, applies update batches, runs refreshes, and
   publishes a fresh deep-copied epoch after every change. Readers in
   flight keep answering from the generation they pinned; superseded
   epochs are drained from the retire list once their pins reach zero.

   Fault discipline: with a snapshot, Self_tuning absorbs storage faults
   internally (refresh rolls back to the last committed epoch, updates
   fall back to rebuild), so the writer always reaches the publish — the
   published epoch is consistent even when degraded. Without a snapshot
   the fault escapes before any registry state changed, so readers keep
   serving the surviving epoch; [rollback] additionally exposes the
   registry's own previous-generation restore for external recovery
   logic. *)

module Tr = Repro_telemetry.Trace
module Metrics = Repro_telemetry.Metrics
module Slo = Repro_telemetry.Slo
module Json = Repro_telemetry.Json
module Self_tuning = Repro_adaptive.Self_tuning
module Policy = Repro_adaptive.Policy
module Registry = Epoch_registry

(* one reader-executed query with its measured signals: the drain path
   feeds these to the tuner, closing the adaptation loop from the actual
   serving traffic rather than from writer-side re-execution *)
type observation = {
  ob_query : Repro_pathexpr.Query.t;
  ob_q2_paths : Repro_pathexpr.Label_path.t list;
  ob_generation : int;  (* generation that served the query *)
  ob_extent_pages : int;
  ob_extent_edges : int;
  ob_join_edges : int;
  ob_latency : float;
}

type feedback = {
  fb_lock : Mutex.t;
  fb_queue : observation Queue.t;
  mutable fb_dropped : int; [@apex.guarded "feedback"]
      (* pushes refused because the buffer was full; under [fb_lock] *)
}

(* Per-generation accounting, filled by the writer as it drains feedback:
   what each serving generation cost, so "generation 7 was 3x slower than
   6" is a queryable fact rather than archaeology. Bounded to the last
   [max_attributed] generations (old records are evicted lowest-generation
   first). *)
type epoch_totals = {
  ep_generation : int;
  mutable ep_queries : int; [@apex.guarded "writer"]
  mutable ep_extent_pages : int; [@apex.guarded "writer"]
  mutable ep_extent_edges : int; [@apex.guarded "writer"]
  mutable ep_join_edges : int; [@apex.guarded "writer"]
  ep_latency : Metrics.histogram;  (* seconds *)
}

let max_attributed = 64

(* reader→writer feedback bound; overflow drops, counted *)
let feedback_capacity = 4096

(* per-query latency watchdog armed with an incident path, seconds: far
   above any healthy query *)
let watchdog_seconds = 0.25

type t = {
  tuner : Self_tuning.t;  (* writer-domain only *)
  registry : Epoch.t Registry.t;
  snapshot : Repro_apex.Apex_persist.Snapshot.t option;
  writer : Mutex.t;  (* serializes every writer-side operation *)
  feedback : feedback;
  metrics : Metrics.t;
  started_ns : int;  (* monotonic ns at [create], for uptime *)
  slo : Slo.t option;
      (* writer-domain only; [Slo.default_objectives], whose objective
         index is the query type's, and the latency watchdog *)
  incident_path : string option;  (* auto-dump target for trips/breaches *)
  attribution : (int, epoch_totals) Hashtbl.t; [@apex.guarded "writer"]
      (* generation -> cost totals; writer-owned under [writer] *)
  c_publishes : Metrics.counter;
  c_epochs_freed : Metrics.counter;
  c_rollbacks : Metrics.counter;
  c_drained : Metrics.counter;
  c_obs_extent_pages : Metrics.counter;
  c_obs_extent_edges : Metrics.counter;
  c_obs_join_edges : Metrics.counter;
  c_incidents : Metrics.counter;
  g_generation : Metrics.gauge;
  h_latency : Metrics.histogram;
      (* registry-level query latency (seconds), in the [metrics]
         section of [introspect]; per-epoch splits live in [attribution] *)
}

let snapshot_epoch t =
  match t.snapshot with
  | Some snap -> Repro_apex.Apex_persist.Snapshot.epoch snap
  | None -> 0

(* Deep-copy the writer's index into a frozen epoch and make it current;
   then drain what the publish superseded. Caller holds [t.writer]. Both
   spans are always-on Trace kinds, so an incident file keeps them. *)
let publish_locked t =
  let tok = Tr.begin_ Tr.Epoch_publish in
  let epoch = Epoch.of_apex ~snapshot_epoch:(snapshot_epoch t) (Self_tuning.apex t.tuner) in
  let generation = Registry.publish t.registry epoch in
  Tr.end_arg tok generation;
  Metrics.incr t.c_publishes;
  Metrics.set t.g_generation (float_of_int generation);
  let rtok = Tr.begin_ Tr.Epoch_retire in
  let freed = Registry.retire t.registry in
  Tr.end_arg rtok freed;
  Metrics.add t.c_epochs_freed freed;
  generation

let create ?log_capacity ?min_support ?(refresh_every = 500) ?pool ?snapshot ?policy
    ?incident_path graph =
  let tuner =
    Self_tuning.create ?log_capacity ?min_support ~refresh_every ?pool ?snapshot ?policy
      graph
  in
  let registry =
    Registry.create
      (Epoch.of_apex
         ~snapshot_epoch:
           (match snapshot with
            | Some snap -> Repro_apex.Apex_persist.Snapshot.epoch snap
            | None -> 0)
         (Self_tuning.apex tuner))
  in
  let metrics = Self_tuning.metrics tuner in
  let slo =
    Option.map
      (fun _ -> Slo.create ~watchdog:watchdog_seconds Slo.default_objectives)
      incident_path
  in
  let t =
    { tuner;
      registry;
      snapshot;
      writer = Mutex.create ();
      feedback =
        { fb_lock = Mutex.create ();
          fb_queue = Queue.create ();
          fb_dropped = 0
        };
      metrics;
      started_ns = Tr.now_ns ();
      slo;
      incident_path;
      attribution = Hashtbl.create 32;
      c_publishes = Metrics.counter metrics "server.publishes";
      c_epochs_freed = Metrics.counter metrics "server.epochs_freed";
      c_rollbacks = Metrics.counter metrics "server.rollbacks";
      c_drained = Metrics.counter metrics "server.feedback_drained";
      c_obs_extent_pages = Metrics.counter metrics "server.observed_extent_pages";
      c_obs_extent_edges = Metrics.counter metrics "server.observed_extent_edges";
      c_obs_join_edges = Metrics.counter metrics "server.observed_join_edges";
      c_incidents = Metrics.counter metrics "server.incidents";
      g_generation = Metrics.gauge metrics "server.generation";
      h_latency = Metrics.histogram metrics "server.query_latency_seconds"
    }
  in
  Metrics.set t.g_generation 1.;
  (* per-epoch gauges: live values snapshotted whenever the registry is
     introspected (apexctl, bench) *)
  Metrics.register_source metrics "server.epoch" (fun () ->
      let s = Registry.stats t.registry in
      [ ("generation", float_of_int (Registry.current_generation t.registry));
        ("pinned", float_of_int (Registry.pinned t.registry));
        ("retired_live", float_of_int s.Registry.retired_live);
        ("freed", float_of_int s.Registry.freed);
        ("generations", float_of_int s.Registry.generations)
      ]);
  t

(* --- reader side (any domain) --- *)

let offer_feedback t ob =
  let fb = t.feedback in
  Mutex.lock fb.fb_lock;
  if Queue.length fb.fb_queue < feedback_capacity then Queue.push ob fb.fb_queue
  else fb.fb_dropped <- fb.fb_dropped + 1;
  Mutex.unlock fb.fb_lock

let query_pinned t q =
  let tok = Tr.begin_ Tr.Reader_pin in
  let entry = Registry.pin t.registry in
  let generation = Registry.generation entry in
  let q2_paths = ref [] in
  (* private per-query measurement: epochs are unmaterialized, so the
     page counter stays 0 and the signal is edge/join work + wall clock *)
  let cost = Repro_storage.Cost.create () in
  let t0 = Tr.now_ns () in
  let result =
    match
      Epoch.eval ~cost
        ~on_sequence:(fun p -> q2_paths := p :: !q2_paths)
        (Registry.payload entry) q
    with
    | r ->
      Registry.unpin entry;
      r
    | exception e ->
      Registry.unpin entry;
      Tr.end_ tok;
      raise e
  in
  Tr.end_arg tok generation;
  offer_feedback t
    { ob_query = q;
      ob_q2_paths = !q2_paths;
      ob_generation = generation;
      ob_extent_pages = cost.Repro_storage.Cost.extent_pages;
      ob_extent_edges = cost.Repro_storage.Cost.extent_edges;
      ob_join_edges = cost.Repro_storage.Cost.join_edges;
      ob_latency = Float.of_int (Tr.now_ns () - t0) *. 1e-9 };
  (generation, result)

let query t q = snd (query_pinned t q)

(* --- the server-state document (writer side) --- *)

(* Caller holds [t.writer]. Snapshot the attribution table, oldest
   generation first; records and histograms are copies, so the caller can
   keep them past the lock and never sees later drains. *)
let attribution_locked t =
  Hashtbl.fold
    (fun _ e acc ->
      { e with ep_latency = Metrics.Histogram.merge e.ep_latency (Metrics.Histogram.create ()) }
      :: acc)
    t.attribution []
  |> List.sort (fun a b -> Int.compare a.ep_generation b.ep_generation)

let num i = Json.Num (float_of_int i)

let histogram_json h =
  let q p =
    match Metrics.Histogram.quantile_opt h p with
    | None -> Json.Null
    | Some v -> Json.Num v
  in
  Json.Obj
    [ ("count", num (Metrics.Histogram.count h));
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
      ("max",
       if Metrics.Histogram.count h = 0 then Json.Null
       else Json.Num (Metrics.Histogram.max_value h))
    ]

let feedback_dropped t =
  let fb = t.feedback in
  Mutex.lock fb.fb_lock;
  let n = fb.fb_dropped in
  Mutex.unlock fb.fb_lock;
  n

(* Caller holds [t.writer]. *)
let introspect_fields t =
  let server =
    Json.Obj
      [ ("generation", num (Registry.current_generation t.registry));
        ("publishes", num (Metrics.value t.c_publishes));
        ("epochs_freed", num (Metrics.value t.c_epochs_freed));
        ("rollbacks", num (Metrics.value t.c_rollbacks));
        ("feedback_drained", num (Metrics.value t.c_drained));
        ("feedback_dropped", num (feedback_dropped t));
        ("incidents", num (Metrics.value t.c_incidents));
        ("uptime_seconds", Json.Num (Float.of_int (Tr.now_ns () - t.started_ns) *. 1e-9))
      ]
  in
  let epochs =
    List.map
      (fun (i : Registry.info) ->
        Json.Obj
          [ ("generation", num i.Registry.info_generation);
            ("state", Json.Str i.Registry.info_state);
            ("pins", num i.Registry.info_pins);
            ("age_seconds", Json.Num i.Registry.info_age)
          ])
      (Registry.info t.registry)
  in
  let attribution =
    List.map
      (fun ep ->
        Json.Obj
          [ ("generation", num ep.ep_generation);
            ("queries", num ep.ep_queries);
            ("extent_pages", num ep.ep_extent_pages);
            ("extent_edges", num ep.ep_extent_edges);
            ("join_edges", num ep.ep_join_edges);
            ("latency", histogram_json ep.ep_latency)
          ])
      (attribution_locked t)
  in
  let policy =
    match Self_tuning.policy t.tuner with
    | Some p -> Policy.state_json p
    | None -> Json.Null
  in
  let tstats = Tr.stats () in
  let trace =
    Json.Obj
      [ ("recorded", num tstats.Tr.recorded);
        ("retained", num tstats.Tr.retained);
        ("overwritten", num tstats.Tr.overwritten)
      ]
  in
  let metrics =
    Json.Obj
      (List.map
         (fun (name, v) ->
           ( name,
             match v with
             | Metrics.Count n -> num n
             | Metrics.Level f -> Json.Num f
             | Metrics.Dist h -> histogram_json h ))
         (Metrics.snapshot t.metrics))
  in
  [ ("server", server);
    ("epochs", Json.Arr epochs);
    ("attribution", Json.Arr attribution);
    ("slo", Option.fold ~none:Json.Null ~some:Slo.to_json t.slo);
    ("policy", policy);
    ("trace", trace);
    ("metrics", metrics)
  ]

(* Caller holds [t.writer]. The introspection document, with the reason,
   the retained always-on records and the trace tail, written to [path]. *)
let dump_locked t ~reason path =
  Metrics.incr t.c_incidents;
  let events, spans = Repro_telemetry.Export.incident_records () in
  let doc =
    Json.Obj
      ((("reason", Json.Str reason) :: introspect_fields t)
      @ [ ("events", Json.Arr events); ("spans", Json.Arr spans) ])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

(* --- writer side (single domain) --- *)

let with_writer t f =
  Mutex.lock t.writer;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.writer) f

let apply t ops =
  with_writer t (fun () ->
      Tr.record Tr.Update_batch ~a:(List.length ops) ~b:0;
      Self_tuning.update t.tuner ops;
      publish_locked t)

(* Caller holds [t.writer]. Forced or due, a published refresh leaves one
   always-on record. *)
let refresh_locked t =
  let generation =
    Self_tuning.refresh_and_publish t.tuner ~publish:(fun _apex -> publish_locked t)
  in
  let changes =
    match Self_tuning.policy t.tuner with
    | Some p -> Policy.last_changes p
    | None -> 0
  in
  Tr.record Tr.Refresh_published ~a:generation ~b:changes;
  generation

let force_refresh t = with_writer t (fun () -> refresh_locked t)

(* Caller holds [t.writer]. Get-or-create the generation's accounting
   record; beyond [max_attributed] live generations the lowest-numbered
   (oldest) record is evicted first. *)
let attribution_totals t generation =
  match Hashtbl.find_opt t.attribution generation with
  | Some totals -> totals
  | None ->
    if Hashtbl.length t.attribution >= max_attributed then begin
      let oldest = Hashtbl.fold (fun g _ acc -> min g acc) t.attribution max_int in
      Hashtbl.remove t.attribution oldest
    end;
    let totals =
      { ep_generation = generation;
        ep_queries = 0;
        ep_extent_pages = 0;
        ep_extent_edges = 0;
        ep_join_edges = 0;
        ep_latency = Metrics.Histogram.create ()
      }
    in
    Hashtbl.add t.attribution generation totals;
    totals

let qtype_index = function
  | Repro_pathexpr.Query.Qtype1 _ -> 0
  | Repro_pathexpr.Query.Qtype2 _ -> 1
  | Repro_pathexpr.Query.Qtype3 _ -> 2

let drain_feedback t =
  with_writer t (fun () ->
      let fb = t.feedback in
      Mutex.lock fb.fb_lock;
      let batch = Queue.fold (fun acc item -> item :: acc) [] fb.fb_queue in
      Queue.clear fb.fb_queue;
      let dropped = fb.fb_dropped in
      Mutex.unlock fb.fb_lock;
      let batch = List.rev batch in
      let tripped = ref false in
      List.iter
        (fun ob ->
          Self_tuning.record_external t.tuner ~q2_paths:ob.ob_q2_paths
            ~extent_pages:ob.ob_extent_pages ~extent_edges:ob.ob_extent_edges
            ~join_edges:ob.ob_join_edges ob.ob_query;
          let e = attribution_totals t ob.ob_generation in
          e.ep_queries <- e.ep_queries + 1;
          e.ep_extent_pages <- e.ep_extent_pages + ob.ob_extent_pages;
          e.ep_extent_edges <- e.ep_extent_edges + ob.ob_extent_edges;
          e.ep_join_edges <- e.ep_join_edges + ob.ob_join_edges;
          Metrics.Histogram.record e.ep_latency ob.ob_latency;
          Metrics.Histogram.record t.h_latency ob.ob_latency;
          Metrics.add t.c_obs_extent_pages ob.ob_extent_pages;
          Metrics.add t.c_obs_extent_edges ob.ob_extent_edges;
          Metrics.add t.c_obs_join_edges ob.ob_join_edges;
          match t.slo with
          | Some s ->
            if Slo.observe s (qtype_index ob.ob_query) ~generation:ob.ob_generation
                 ob.ob_latency
            then tripped := true
          | None -> ())
        batch;
      let n = List.length batch in
      Metrics.add t.c_drained n;
      Tr.record Tr.Drain ~a:n ~b:dropped;
      (* the SLO window rotates once per non-empty drain, so the effective
         window tracks served traffic rather than idle polling *)
      let breached =
        match t.slo with
        | Some s when n > 0 ->
          let statuses = Slo.advance s in
          List.exists (fun st -> st.Slo.st_breached) statuses
        | Some _ | None -> false
      in
      (match t.incident_path with
       | Some path when !tripped || breached ->
         dump_locked t ~reason:(if !tripped then "watchdog trip" else "slo breach") path
       | _ -> ());
      let refreshed =
        if Self_tuning.due_for_refresh t.tuner then Some (refresh_locked t) else None
      in
      (n, refreshed))

let rollback t =
  with_writer t (fun () ->
      match Registry.rollback t.registry with
      | Some generation ->
        Metrics.incr t.c_rollbacks;
        Metrics.set t.g_generation (float_of_int generation);
        Tr.event Tr.Epoch_rolled_back generation;
        ignore (Registry.retire t.registry : int);
        Some generation
      | None -> None)

let retire t = with_writer t (fun () -> Registry.retire t.registry)

(* --- introspection --- *)

let registry t = t.registry
let tuner t = t.tuner
let generation t = Registry.current_generation t.registry
let publishes t = Metrics.value t.c_publishes
let epochs_freed t = Metrics.value t.c_epochs_freed
let rollbacks t = Metrics.value t.c_rollbacks
let feedback_drained t = Metrics.value t.c_drained

let attribution t = with_writer t (fun () -> attribution_locked t)

let introspect t = with_writer t (fun () -> Json.Obj (introspect_fields t))

let incident_dump ?(reason = "on-demand") t path =
  with_writer t (fun () -> dump_locked t ~reason path)
