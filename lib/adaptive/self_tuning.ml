module Tr = Repro_telemetry.Trace
module Metrics = Repro_telemetry.Metrics

type t = {
  mutable apex : Repro_apex.Apex.t;
  log : Repro_workload.Query_log.t;
  min_support : float;
  refresh_every : int;
  policy : Policy.t option;
  pool : Repro_storage.Buffer_pool.t option;
  snapshot : Repro_apex.Apex_persist.Snapshot.t option;
  mutable last_refresh_at : int;  (* total_recorded at the last refresh *)
  (* adaptation counters live in a per-instance registry: two indexes tuned
     in the same process must not share counts, and the registry is what
     apexctl/bench snapshot for introspection *)
  metrics : Metrics.t;
  c_refreshes : Metrics.counter;
  c_aborted_refreshes : Metrics.counter;
  c_updates : Metrics.counter;
  c_aborted_updates : Metrics.counter;
}

let materialize t =
  match t.pool with
  | Some pool -> Repro_apex.Apex.materialize t.apex pool
  | None -> ()

let create ?(log_capacity = 1000) ?(min_support = 0.005) ?(refresh_every = 500) ?pool
    ?snapshot ?policy graph =
  let metrics = Metrics.create () in
  (* allocation regressions show up next to the adaptation counters in
     every snapshot (bench --json, introspection, incident files) *)
  Metrics.register_gc metrics;
  (match pool with
   | Some pool ->
     let stats = Repro_storage.Pager.stats (Repro_storage.Buffer_pool.pager pool) in
     Metrics.register_source metrics "io" (fun () ->
         List.map
           (fun (k, v) -> (k, float_of_int v))
           (Repro_storage.Io_stats.to_fields stats))
   | None -> ());
  let t =
    { apex = Repro_apex.Apex.build graph;
      log = Repro_workload.Query_log.create ~capacity:log_capacity;
      min_support;
      refresh_every;
      policy;
      pool;
      snapshot;
      last_refresh_at = 0;
      metrics;
      c_refreshes = Metrics.counter metrics "self_tuning.refreshes";
      c_aborted_refreshes = Metrics.counter metrics "self_tuning.aborted_refreshes";
      c_updates = Metrics.counter metrics "self_tuning.updates";
      c_aborted_updates = Metrics.counter metrics "self_tuning.aborted_updates"
    }
  in
  materialize t;
  (* the recovery baseline: APEX0 is committed before any query runs, so a
     fault during the very first refresh still has an epoch to roll back to *)
  (match snapshot with
   | Some snap -> ignore (Repro_apex.Apex_persist.Snapshot.commit snap t.apex : int)
   | None -> ());
  t

let mark_window t =
  t.last_refresh_at <- Repro_workload.Query_log.total_recorded t.log

let refresh_and_commit t =
  let workload = Repro_workload.Query_log.to_workload t.log in
  let plan =
    match t.policy with
    | None ->
      Repro_apex.Apex.refresh t.apex ~workload ~min_support:t.min_support;
      None
    | Some policy ->
      (* the policy decides from its decayed cost/support accumulators;
         the window's raw counts were already folded in by [plan]'s roll *)
      let plan = Policy.plan policy in
      Repro_apex.Apex.refresh t.apex ~workload ~min_support:t.min_support
        ~decide:(Policy.decide plan) ~ensure:(Policy.keep_paths plan);
      Some (policy, plan)
  in
  materialize t;
  (match t.snapshot with
   | Some snap -> ignore (Repro_apex.Apex_persist.Snapshot.commit snap t.apex : int)
   | None -> ());
  (* commit the plan only after the refresh has fully landed: a fault
     above rolls the epoch back, and the hysteresis must keep comparing
     against the state the index actually reached *)
  match plan with Some (policy, plan) -> Policy.commit policy plan | None -> ()

(* A fault mid-refresh (or mid-commit) can leave the in-memory index and
   its materialized pages in a mixed state. Roll back to the last committed
   snapshot epoch and keep serving queries from it — degraded (the refresh
   didn't land) but never wrong. Without a snapshot there is nothing to
   roll back to, so the exception propagates. *)
let force_refresh t =
  match t.snapshot with
  | None ->
    refresh_and_commit t;
    mark_window t;
    Metrics.incr t.c_refreshes
  | Some snap -> (
    match refresh_and_commit t with
    | () ->
      mark_window t;
      Metrics.incr t.c_refreshes
    | exception (Repro_storage.Fault.Injected _ | Invalid_argument _) ->
      let stats =
        Repro_storage.Pager.stats
          (Repro_storage.Buffer_pool.pager
             (Repro_storage.Extent_store.pool
                (Repro_apex.Apex_persist.Snapshot.store snap)))
      in
      stats.Repro_storage.Io_stats.refresh_aborts <-
        stats.Repro_storage.Io_stats.refresh_aborts + 1;
      Metrics.incr t.c_aborted_refreshes;
      t.apex <-
        Repro_apex.Apex_persist.Snapshot.load_latest snap
          (Repro_apex.Apex.graph t.apex);
      Tr.event Tr.Epoch_rolled_back
        (Repro_apex.Apex_persist.Snapshot.epoch snap);
      materialize t;
      (* consume the window anyway: an immediate retry would hit the
         same fault pattern — wait for the next full window instead *)
      mark_window t)

let due_for_refresh t =
  Repro_workload.Query_log.total_recorded t.log - t.last_refresh_at >= t.refresh_every

let maybe_refresh t = if due_for_refresh t then force_refresh t

(* --- serving-layer entry points (lib/server) ---

   The server evaluates queries on reader domains against published
   epochs, so the evaluate-and-log loop of [query] splits: readers report
   what they ran through [record_external] (via the server's feedback
   buffer, drained on the writer domain), and the writer decides when the
   window is due and runs [refresh_and_publish] — the refresh-through-
   registry path, where the post-refresh index is handed to the epoch
   publication continuation instead of being served in place. *)

let record_external t ?q2_paths ?(extent_pages = 0) ?(extent_edges = 0)
    ?(join_edges = 0) q =
  let labels = Repro_graph.Data_graph.labels (Repro_apex.Apex.graph t.apex) in
  let paths = Repro_workload.Query_log.paths_of_query ?q2_paths labels q in
  List.iter (Repro_workload.Query_log.record t.log) paths;
  match t.policy with
  | None -> ()
  | Some policy -> Policy.observe policy ~paths ~extent_pages ~extent_edges ~join_edges

let refresh_and_publish t ~publish =
  force_refresh t;
  publish t.apex

let query ?cost ?table t q =
  (* Q2 rewritings matched by the search are the concrete label paths the
     query used; feed them to the log so partial-match-heavy workloads
     accumulate support for the paths they actually touch. *)
  let q2_paths = ref [] in
  let on_sequence seq = q2_paths := seq :: !q2_paths in
  let result =
    match t.policy with
    | None ->
      let r = Repro_apex.Apex_query.eval_query ?cost ?table ~on_sequence t.apex q in
      record_external t ~q2_paths:!q2_paths q;
      r
    | Some _ ->
      (* the policy needs this query's cost even when the caller doesn't:
         evaluate against a private Cost, then fold the charges into the
         caller's accumulator *)
      let mcost = Repro_storage.Cost.create () in
      let r = Repro_apex.Apex_query.eval_query ~cost:mcost ?table ~on_sequence t.apex q in
      (match cost with Some c -> Repro_storage.Cost.add c mcost | None -> ());
      record_external t ~q2_paths:!q2_paths
        ~extent_pages:mcost.Repro_storage.Cost.extent_pages
        ~extent_edges:mcost.Repro_storage.Cost.extent_edges
        ~join_edges:mcost.Repro_storage.Cost.join_edges q;
      r
  in
  maybe_refresh t;
  result

(* Data updates interleave with queries and refreshes: the index is
   maintained incrementally (never rebuilt) on the happy path, and the next
   refresh starts from the maintained index. A storage fault while flushing
   extent deltas leaves the data change applied but the store behind; the
   in-memory index is rebuilt over the mutated graph and re-materialized —
   degraded (the incremental path was abandoned) but never wrong. Operand
   errors ([Invalid_argument], e.g. deleting the root) propagate: the ops
   before the bad one are applied and maintained, the rest are not. *)
let update t ops =
  (match Repro_update.Update.apply t.apex ops with
   | (_ : Repro_update.Update.stats) -> ()
   | exception Repro_storage.Fault.Injected _ ->
     Metrics.incr t.c_aborted_updates;
     Tr.event Tr.Update_aborted (List.length ops);
     t.apex <- Repro_apex.Apex.build (Repro_apex.Apex.graph t.apex);
     materialize t);
  Metrics.add t.c_updates (List.length ops);
  (* commit the post-update state as a snapshot epoch: recovery must not
     resurrect an index describing the pre-update document *)
  match t.snapshot with
  | None -> ()
  | Some snap -> (
    match Repro_apex.Apex_persist.Snapshot.commit snap t.apex with
    | (_ : int) -> ()
    | exception (Repro_storage.Fault.Injected _ | Invalid_argument _) ->
      (* the epoch lags; queries serve from memory and the next successful
         commit (refresh or update) catches the store up *)
      Metrics.incr t.c_aborted_updates;
      Tr.event Tr.Update_aborted (List.length ops))

let apex t = t.apex
let log t = t.log
let policy t = t.policy
let metrics t = t.metrics
let refreshes t = Metrics.value t.c_refreshes
let aborted_refreshes t = Metrics.value t.c_aborted_refreshes
let updates t = Metrics.value t.c_updates
let aborted_updates t = Metrics.value t.c_aborted_updates
