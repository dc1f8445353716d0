(* Exhaustive crash-point enumeration over the fault-injection layer.

   A schedule is one save/refresh/query lifecycle run against a pager with
   an attached {!Repro_storage.Fault} policy. The harness first runs the
   schedule in counting mode to learn how many injectable sites of the
   fault's op class it passes, then replays it once per site with the fault
   armed to fire exactly there. After each replay it disarms the policy,
   re-opens the snapshot as crash recovery would, and checks the guarantee
   tier the fault kind promises:

   - crash faults (Torn_write, Enospc) abort the schedule; if at least one
     commit completed, recovery must restore a committed epoch whose
     answers equal the naive-traversal oracle. Before the first commit,
     either nothing recovers or the interrupted commit actually made it to
     disk — both are consistent outcomes of a crash.
   - silent corruption (Write_flip) never produces a wrong answer: the
     schedule either completes with oracle-equal answers or surfaces
     [Invalid_argument] from checksum verification; recovery always
     succeeds (ping-pong slots mean one bit flip cannot take out both
     epochs).
   - transient corruption (Read_flip, Short_read) is healed by the pager's
     verified re-read: the schedule completes, answers equal the oracle.

   Failure strings carry the seed, kind and site so CI can publish an
   exact reproduction. *)

module Fault = Repro_storage.Fault
module Pager = Repro_storage.Pager
module Buffer_pool = Repro_storage.Buffer_pool
module Extent_store = Repro_storage.Extent_store
module Io_stats = Repro_storage.Io_stats
module Apex = Repro_apex.Apex
module Apex_query = Repro_apex.Apex_query
module Snapshot = Repro_apex.Apex_persist.Snapshot
module Query_log = Repro_workload.Query_log
module Naive_eval = Repro_pathexpr.Naive_eval
module Data_graph = Repro_graph.Data_graph
module Self_tuning = Repro_adaptive.Self_tuning

let page_size = 512

(* deliberately tiny: evictions force query evaluation back to the pager,
   multiplying the injectable read sites the matrix enumerates *)
let pool_capacity = 4
let min_support = 0.34

type outcome =
  | Completed
  | Crashed  (* Fault.Injected escaped: the simulated process death *)
  | Detected  (* Invalid_argument escaped: corruption caught by a checksum *)

type recovery =
  | Recovered of { epoch : int; bad_answers : int }
  | No_snapshot

type report = {
  kind : Fault.kind;
  sites : int;
  crashes : int;
  detected : int;
  completions : int;
  recoveries : int;
  read_retries : int;
  failures : string list;  (* empty = every site honored its guarantee *)
}

let all_kinds =
  [ Fault.Torn_write; Fault.Write_flip; Fault.Read_flip; Fault.Short_read; Fault.Enospc ]

let nid_arrays_equal a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i v -> if v <> b.(i) then ok := false) a;
       !ok
     end

let oracle_answers graph queries =
  Array.map (fun q -> Naive_eval.eval_query graph q) queries

let report_to_string r =
  Printf.sprintf
    "%-11s sites=%-4d crashes=%d detected=%d completed=%d recovered=%d retries=%d failures=%d"
    (Fault.kind_name r.kind) r.sites r.crashes r.detected r.completions r.recoveries
    r.read_retries (List.length r.failures)

(* --- the save -> crash -> recover -> query schedule --- *)

(* Build APEX0, materialize, commit epoch 1; refresh against the query
   workload, re-materialize, commit epoch 2; answer every query. The fault
   policy is armed before the first page allocation, so environment setup
   is inside the matrix too. *)
let run_schedule ~seed ~arm graph queries oracle =
  let fault = Fault.create ~seed () in
  arm fault;
  let pager = Pager.create ~page_size () in
  Pager.set_fault pager (Some fault);
  let progress = ref 0 in
  let mismatches = ref 0 in
  let superblock = ref (-1) in
  let outcome =
    match
      (* the extent cache would serve decoded images from memory and mask
         on-page corruption — the matrix always reads through the pager *)
      let pool = Buffer_pool.create pager ~capacity:pool_capacity in
      let store = Extent_store.create ~cache_entries:0 pool in
      let snap = Snapshot.create store in
      superblock := Snapshot.superblock snap;
      let apex = Apex.build graph in
      Apex.materialize apex pool;
      ignore (Snapshot.commit snap apex : int);
      progress := 1;
      let log = Query_log.create ~capacity:256 in
      let labels = Data_graph.labels graph in
      Array.iter
        (fun q -> List.iter (Query_log.record log) (Query_log.paths_of_query labels q))
        queries;
      Apex.refresh apex ~workload:(Query_log.to_workload log) ~min_support;
      Apex.materialize apex pool;
      ignore (Snapshot.commit snap apex : int);
      progress := 2;
      Array.iteri
        (fun i q ->
          if not (nid_arrays_equal (Apex_query.eval_query apex q) oracle.(i)) then
            incr mismatches)
        queries
    with
    | () -> Completed
    | exception Fault.Injected _ -> Crashed
    | exception Invalid_argument _ -> Detected
  in
  (fault, pager, !superblock, !progress, !mismatches, outcome)

(* What a restarted process does: fresh pool and store over the surviving
   pager, re-attach the snapshot by its superblock pid, load the newest
   complete epoch and answer the whole workload from it. *)
let recover fault pager superblock graph queries oracle =
  Fault.disarm fault;
  if superblock < 0 then No_snapshot
  else begin
    let pool = Buffer_pool.create pager ~capacity:pool_capacity in
    let store = Extent_store.create ~cache_entries:0 pool in
    let snap = Snapshot.attach store ~superblock in
    match Snapshot.load_latest snap graph with
    | apex ->
      Apex.materialize apex pool;
      let bad = ref 0 in
      Array.iteri
        (fun i q ->
          if not (nid_arrays_equal (Apex_query.eval_query apex q) oracle.(i)) then incr bad)
        queries;
      Recovered { epoch = Snapshot.epoch snap; bad_answers = !bad }
    | exception Invalid_argument _ -> No_snapshot
  end

let run_matrix ?(seed = 1) graph queries kind =
  let oracle = oracle_answers graph queries in
  let fault, _, _, _, mism, outcome =
    run_schedule ~seed ~arm:Fault.arm_count graph queries oracle
  in
  (match outcome with
   | Completed when mism = 0 -> ()
   | Completed | Crashed | Detected ->
     failwith "crash_matrix: counting pass must complete with oracle-equal answers");
  let sites = Fault.sites fault (Fault.op_of_kind kind) in
  let crashes = ref 0 and detected = ref 0 and completions = ref 0 in
  let recoveries = ref 0 and retries = ref 0 in
  let failures = ref [] in
  let fail site msg =
    failures :=
      Printf.sprintf "seed=%d kind=%s site=%d: %s" seed (Fault.kind_name kind) site msg
      :: !failures
  in
  for site = 0 to sites - 1 do
    let fault, pager, superblock, progress, mism, outcome =
      run_schedule ~seed ~arm:(fun f -> Fault.arm_at f kind ~site) graph queries oracle
    in
    retries := !retries + (Pager.stats pager).Io_stats.read_retries;
    (match outcome with
     | Crashed -> incr crashes
     | Detected -> incr detected
     | Completed -> incr completions);
    let recovery = recover fault pager superblock graph queries oracle in
    (match recovery with Recovered _ -> incr recoveries | No_snapshot -> ());
    (match kind with
     | Fault.Torn_write | Fault.Enospc ->
       (match outcome with
        | Crashed -> ()
        | Completed | Detected -> fail site "crash fault did not abort the schedule");
       (match (recovery, progress) with
        | Recovered { bad_answers = 0; epoch }, _ when epoch >= 1 -> ()
        | Recovered { bad_answers; epoch }, _ ->
          fail site
            (Printf.sprintf "recovered epoch %d but %d answers diverged from the oracle"
               epoch bad_answers)
        | No_snapshot, 0 -> ()
        | No_snapshot, p ->
          fail site (Printf.sprintf "nothing recovered after %d completed commits" p))
     | Fault.Write_flip ->
       (match outcome with
        | Crashed -> fail site "silent-corruption fault raised Injected"
        | Completed when mism > 0 ->
          fail site (Printf.sprintf "%d answers diverged without detection" mism)
        | Completed | Detected -> ());
       (match recovery with
        | Recovered { bad_answers = 0; _ } -> ()
        | Recovered { bad_answers; _ } ->
          fail site (Printf.sprintf "recovery served %d wrong answers" bad_answers)
        | No_snapshot -> fail site "a single bit flip defeated both commit slots")
     | Fault.Read_flip | Fault.Short_read ->
       (match outcome with
        | Completed when mism = 0 -> ()
        | Completed -> fail site (Printf.sprintf "%d answers diverged from the oracle" mism)
        | Crashed | Detected -> fail site "transient fault was not healed by retry");
       if not (Fault.fired fault) then fail site "armed fault never fired";
       (match recovery with
        | Recovered { bad_answers = 0; _ } -> ()
        | Recovered _ | No_snapshot -> fail site "recovery failed after a transient fault"))
  done;
  { kind;
    sites;
    crashes = !crashes;
    detected = !detected;
    completions = !completions;
    recoveries = !recoveries;
    read_retries = !retries;
    failures = List.rev !failures
  }

(* --- the self-tuning (graceful degradation) matrix --- *)

(* Write_flip is excluded: a landed flip on a materialized extent page is
   reported by the pager as [Invalid_argument] from the query path itself,
   which is storage honestly reporting corruption, not an index-consistency
   failure — the snapshot matrix above covers that contract. *)
let selftuning_kinds =
  [ Fault.Torn_write; Fault.Enospc; Fault.Read_flip; Fault.Short_read ]

(* Stream queries through a snapshot-backed {!Self_tuning} handle with a
   short refresh window. The policy is armed only after construction: the
   matrix targets steady-state operation, where every crash-class site sits
   inside a refresh and must be absorbed by rollback. *)
let run_selftuning_schedule ~seed ~arm graph queries oracle =
  let fault = Fault.create ~seed () in
  let pager = Pager.create ~page_size () in
  Pager.set_fault pager (Some fault);
  let pool = Buffer_pool.create pager ~capacity:pool_capacity in
  let store = Extent_store.create ~cache_entries:0 pool in
  let snap = Snapshot.create store in
  let st =
    Self_tuning.create ~log_capacity:64 ~min_support ~refresh_every:5 ~pool ~snapshot:snap
      graph
  in
  arm fault;
  let mismatches = ref 0 in
  let outcome =
    match
      Array.iteri
        (fun i q ->
          if not (nid_arrays_equal (Self_tuning.query st q) oracle.(i)) then
            incr mismatches)
        queries
    with
    | () -> Completed
    | exception Fault.Injected _ -> Crashed
    | exception Invalid_argument _ -> Detected
  in
  (fault, pager, st, !mismatches, outcome)

let run_selftuning_matrix ?(seed = 1) graph queries kind =
  let oracle = oracle_answers graph queries in
  let fault, _, st0, mism0, outcome0 =
    run_selftuning_schedule ~seed ~arm:Fault.arm_count graph queries oracle
  in
  (match outcome0 with
   | Completed when mism0 = 0 && Self_tuning.refreshes st0 > 0 -> ()
   | Completed | Crashed | Detected ->
     failwith "crash_matrix: self-tuning counting pass must complete and refresh");
  let sites = Fault.sites fault (Fault.op_of_kind kind) in
  let crashes = ref 0 and detected = ref 0 and completions = ref 0 in
  let retries = ref 0 in
  let failures = ref [] in
  let fail site msg =
    failures :=
      Printf.sprintf "selftuning seed=%d kind=%s site=%d: %s" seed (Fault.kind_name kind)
        site msg
      :: !failures
  in
  for site = 0 to sites - 1 do
    let fault, pager, st, mism, outcome =
      run_selftuning_schedule ~seed
        ~arm:(fun f -> Fault.arm_at f kind ~site)
        graph queries oracle
    in
    let stats = Pager.stats pager in
    retries := !retries + stats.Io_stats.read_retries;
    (match outcome with
     | Crashed -> incr crashes
     | Detected -> incr detected
     | Completed -> incr completions);
    (match outcome with
     | Completed when mism = 0 -> ()
     | Completed -> fail site (Printf.sprintf "%d answers diverged from the oracle" mism)
     | Crashed -> fail site "fault escaped the query loop as Injected"
     | Detected -> fail site "fault escaped the query loop as Invalid_argument");
    if not (Fault.fired fault) then fail site "armed fault never fired";
    (match kind with
     | Fault.Torn_write | Fault.Enospc ->
       if Self_tuning.aborted_refreshes st <> 1 then
         fail site
           (Printf.sprintf "expected exactly 1 aborted refresh, saw %d"
              (Self_tuning.aborted_refreshes st));
       if stats.Io_stats.refresh_aborts <> 1 then
         fail site
           (Printf.sprintf "Io_stats.refresh_aborts = %d, expected 1"
              stats.Io_stats.refresh_aborts)
     | Fault.Read_flip | Fault.Short_read ->
       if Self_tuning.aborted_refreshes st <> 0 then
         fail site "transient fault must heal, not abort a refresh"
     | Fault.Write_flip -> ())
  done;
  { kind;
    sites;
    crashes = !crashes;
    detected = !detected;
    completions = !completions;
    recoveries = 0;
    read_retries = !retries;
    failures = List.rev !failures
  }

(* --- the concurrent serving matrix --- *)

module Server = Repro_server.Server

(* Readers keep serving published epochs while the writer's refresh hits an
   injected fault mid-publish. Published epochs are unmaterialized deep
   copies, so the reader path never touches the pager: every armed site
   lands on the writer side (refresh / materialize / epoch commit) and must
   be absorbed there by snapshot rollback — the writer reaches its publish
   every round, possibly with the rolled-back index. The schedule is
   refresh-only (no data updates), so the oracle is constant: readers check
   every answer against it and must never observe a wrong answer, an
   exception, or a torn index, no matter where the fault fires. *)

let server_rounds = 3

let run_server_schedule ~seed ~arm graph queries oracle =
  let fault = Fault.create ~seed () in
  let pager = Pager.create ~page_size () in
  Pager.set_fault pager (Some fault);
  let pool = Buffer_pool.create pager ~capacity:pool_capacity in
  let store = Extent_store.create ~cache_entries:0 pool in
  let snap = Snapshot.create store in
  let server =
    Server.create ~log_capacity:64 ~min_support ~refresh_every:1_000_000 ~pool
      ~snapshot:snap graph
  in
  (* steady state: APEX0 is committed and published as generation 1; every
     armed site sits inside one of the refresh rounds below *)
  arm fault;
  let stop = Atomic.make false in
  let reader () =
    let served = ref 0 and bad = ref 0 in
    let errors = ref [] in
    let pass () =
      Array.iteri
        (fun i q ->
          match Server.query server q with
          | r ->
            incr served;
            if not (nid_arrays_equal r oracle.(i)) then incr bad
          | exception e -> errors := Printexc.to_string e :: !errors)
        queries
    in
    (* at least one full pass even if the writer wins the race outright *)
    pass ();
    while not (Atomic.get stop) do
      pass ()
    done;
    (!served, !bad, !errors)
  in
  let domains = Array.init 2 (fun _ -> Domain.spawn reader) in
  let outcome =
    match
      for _round = 1 to server_rounds do
        (* the refresh workload is recorded writer-side so the pager's op
           sequence — and with it the site count — is identical between the
           counting pass and every replay, independent of reader timing *)
        Array.iter
          (fun q -> Self_tuning.record_external (Server.tuner server) q)
          queries;
        ignore (Server.force_refresh server : int)
      done
    with
    | () -> Completed
    | exception Fault.Injected _ -> Crashed
    | exception Invalid_argument _ -> Detected
  in
  Atomic.set stop true;
  let readers = Array.map Domain.join domains in
  (fault, pager, Snapshot.superblock snap, server, readers, outcome)

let run_server_matrix ?(seed = 1) graph queries kind =
  let oracle = oracle_answers graph queries in
  let fault0, _, _, server0, readers0, outcome0 =
    run_server_schedule ~seed ~arm:Fault.arm_count graph queries oracle
  in
  (match outcome0 with
   | Completed
     when Self_tuning.refreshes (Server.tuner server0) = server_rounds
          && Array.for_all (fun (_, bad, errs) -> bad = 0 && errs = []) readers0 -> ()
   | Completed | Crashed | Detected ->
     failwith "crash_matrix: server counting pass must complete and refresh cleanly");
  let sites = Fault.sites fault0 (Fault.op_of_kind kind) in
  let crashes = ref 0 and detected = ref 0 and completions = ref 0 in
  let recoveries = ref 0 in
  let retries = ref 0 in
  let failures = ref [] in
  let fail site msg =
    failures :=
      Printf.sprintf "server seed=%d kind=%s site=%d: %s" seed (Fault.kind_name kind) site
        msg
      :: !failures
  in
  for site = 0 to sites - 1 do
    let fault, pager, superblock, server, readers, outcome =
      run_server_schedule ~seed
        ~arm:(fun f -> Fault.arm_at f kind ~site)
        graph queries oracle
    in
    let stats = Pager.stats pager in
    retries := !retries + stats.Io_stats.read_retries;
    (match outcome with
     | Crashed -> incr crashes
     | Detected -> incr detected
     | Completed -> incr completions);
    (* the writer never dies: with a snapshot every fault class is absorbed
       inside the refresh and the publish still happens *)
    (match outcome with
     | Completed -> ()
     | Crashed -> fail site "fault escaped the writer loop as Injected"
     | Detected -> fail site "fault escaped the writer loop as Invalid_argument");
    if not (Fault.fired fault) then fail site "armed fault never fired";
    (* readers never observe the fault at all *)
    Array.iteri
      (fun i (served, bad, errors) ->
        if errors <> [] then
          fail site (Printf.sprintf "reader %d observed %s" i (List.hd errors));
        if bad > 0 then
          fail site (Printf.sprintf "reader %d served %d wrong answers" i bad);
        if served = 0 then fail site (Printf.sprintf "reader %d starved" i))
      readers;
    (* publish cadence survives the fault: one generation per round on top
       of the initial publication *)
    if Server.generation server <> 1 + server_rounds then
      fail site
        (Printf.sprintf "generation %d after %d rounds (wanted %d)"
           (Server.generation server) server_rounds (1 + server_rounds));
    (match kind with
     | Fault.Torn_write | Fault.Enospc ->
       if Self_tuning.aborted_refreshes (Server.tuner server) <> 1 then
         fail site
           (Printf.sprintf "expected exactly 1 aborted refresh, saw %d"
              (Self_tuning.aborted_refreshes (Server.tuner server)));
       if stats.Io_stats.refresh_aborts <> 1 then
         fail site
           (Printf.sprintf "Io_stats.refresh_aborts = %d, expected 1"
              stats.Io_stats.refresh_aborts)
     | Fault.Read_flip | Fault.Short_read ->
       if Self_tuning.aborted_refreshes (Server.tuner server) <> 0 then
         fail site "transient fault must heal, not abort a refresh"
     | Fault.Write_flip -> ());
    (* what a restarted process finds: the newest complete epoch, serving
       oracle-equal answers *)
    (match recover fault pager superblock graph queries oracle with
     | Recovered { bad_answers = 0; _ } -> incr recoveries
     | Recovered { bad_answers; _ } ->
       fail site (Printf.sprintf "recovery served %d wrong answers" bad_answers)
     | No_snapshot -> fail site "no epoch survived a writer-side fault")
  done;
  { kind;
    sites;
    crashes = !crashes;
    detected = !detected;
    completions = !completions;
    recoveries = !recoveries;
    read_retries = !retries;
    failures = List.rev !failures
  }
