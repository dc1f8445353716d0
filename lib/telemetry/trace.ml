(* Event recorder: spans and instant events in one preallocated
   struct-of-arrays ring per domain (Domain.DLS), registered under [lock]
   on the domain's first record. Only the owner writes a ring, so domains
   never lose or tear each other's records; a global [Atomic] sequence
   number orders records, and readers merge the rings by it. Timestamps
   are integer monotonic nanoseconds: no float, no allocation.

   One [Atomic] bit mask gates recording per kind. Disabled (the
   default), only the always-on operational kinds record, into rings of
   [default_capacity] slots; any other kind costs one flag test.

   A token packs the record's sequence number and slot ([-1]: not
   recorded). Rings overwrite their oldest records on wrap; [end_] checks
   the slot's sequence number and drops a close whose slot was reused.
   [enable]/[reset] start a new ring generation: each domain registers a
   fresh ring on its next record, so a ring is never resized under its
   owner, and rings outlive their domains until then (an export after
   joining the readers still sees their records). *)

type kind =
  (* query pipeline phases *)
  | Parse
  | Plan
  | Probe
  | Fetch
  | Join
  | Materialize
  (* enclosing units of work *)
  | Query
  | Refresh
  | Mine
  | Prune
  | Traverse
  | Update_apply
  | Snapshot_commit
  | Recovery
  | Decode  (* block-compressed extent decode; arg = blocks decoded *)
  (* serving lifecycle (lib/server) *)
  | Epoch_publish  (* always on; arg = generation *)
  | Epoch_retire  (* always on; arg = epochs freed *)
  | Reader_pin  (* one pinned query evaluation; arg = generation served *)
  (* adaptation events (instants, no duration) *)
  | Path_promoted
  | Path_evicted
  | Delta_flushed
  | Epoch_committed
  | Epoch_rolled_back  (* always on; arg = generation restored *)
  | Update_aborted
  | Block_skip  (* arg = compressed blocks skipped by a header range test *)
  (* operational instants, always on *)
  | Slo_breach  (* arg = objective index; arg2 = burn rate x1000 *)
  | Update_batch  (* arg = ops applied *)
  | Drain  (* arg = observations drained, arg2 = feedback dropped total *)
  | Refresh_published  (* arg = generation, arg2 = plan changes *)
  | Watchdog_trip  (* arg = generation, arg2 = latency ns *)

(* inlined so the disabled path stays one load, shift and test *)
let[@inline] kind_index = function
  | Parse -> 0
  | Plan -> 1
  | Probe -> 2
  | Fetch -> 3
  | Join -> 4
  | Materialize -> 5
  | Query -> 6
  | Refresh -> 7
  | Mine -> 8
  | Prune -> 9
  | Traverse -> 10
  | Update_apply -> 11
  | Snapshot_commit -> 12
  | Recovery -> 13
  | Decode -> 14
  | Epoch_publish -> 15
  | Epoch_retire -> 16
  | Reader_pin -> 17
  | Path_promoted -> 18
  | Path_evicted -> 19
  | Delta_flushed -> 20
  | Epoch_committed -> 21
  | Epoch_rolled_back -> 22
  | Update_aborted -> 23
  | Block_skip -> 24
  | Slo_breach -> 25
  | Update_batch -> 26
  | Drain -> 27
  | Refresh_published -> 28
  | Watchdog_trip -> 29

(* indexed by [kind_index] *)
let kinds_and_names =
  [| (Parse, "parse"); (Plan, "plan"); (Probe, "probe"); (Fetch, "fetch");
     (Join, "join"); (Materialize, "materialize"); (Query, "query");
     (Refresh, "refresh"); (Mine, "mine"); (Prune, "prune");
     (Traverse, "traverse"); (Update_apply, "update_apply");
     (Snapshot_commit, "snapshot_commit"); (Recovery, "recovery");
     (Decode, "decode"); (Epoch_publish, "epoch_publish");
     (Epoch_retire, "epoch_retire"); (Reader_pin, "reader_pin");
     (Path_promoted, "path_promoted"); (Path_evicted, "path_evicted");
     (Delta_flushed, "delta_flushed"); (Epoch_committed, "epoch_committed");
     (Epoch_rolled_back, "epoch_rolled_back");
     (Update_aborted, "update_aborted"); (Block_skip, "block_skip");
     (Slo_breach, "slo_breach"); (Update_batch, "update_batch"); (Drain, "drain");
     (Refresh_published, "refresh_published");
     (Watchdog_trip, "watchdog_trip") |]
[@@apex.guarded "readonly"]

let n_kinds = Array.length kinds_and_names
let kind_of_index i = fst kinds_and_names.(i)
let kind_name k = snd kinds_and_names.(kind_index k)
let all_kinds = List.init n_kinds kind_of_index

let kind_is_event k = kind_index k >= kind_index Path_promoted

let always_on = function
  | Epoch_publish | Epoch_retire | Epoch_rolled_back | Slo_breach | Update_batch | Drain
  | Refresh_published | Watchdog_trip -> true
  | _ -> false

let always_on_kinds = List.filter always_on all_kinds

let[@inline] bit k = 1 lsl kind_index k
let always_on_mask = List.fold_left (fun m k -> m lor bit k) 0 always_on_kinds
let all_mask = (1 lsl n_kinds) - 1

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type ring = {
  gen : int;  (* registry generation the ring belongs to *)
  domain : int;  (* owner's Domain.id *)
  cap : int;
  kinds : int array;
  seqs : int array;  (* global seq of the record in each slot; -1 = empty *)
  starts : int array;  (* monotonic ns *)
  stops : int array;  (* monotonic ns; -1 while a span is open *)
  args : int array;
  args2 : int array;
  notes : string array;
  mutable next : int;  (* records this domain wrote into the ring *)
  counts : int array;  (* per kind; survives ring wrap *)
  mutable dropped_ends : int;  (* end_ whose slot was overwritten *)
}

let make_ring ~gen ~cap =
  { gen;
    domain = (Domain.self () :> int);
    cap;
    kinds = Array.make cap 0;
    seqs = Array.make cap (-1);
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    args = Array.make cap 0;
    args2 = Array.make cap 0;
    notes = Array.make cap "";
    next = 0;
    counts = Array.make n_kinds 0;
    dropped_ends = 0 }

let default_capacity = 1024

(* Slot index in the low bits of a token, sequence number above it. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* The rings of the current generation, with the capacity new rings get
   and the time origin of exported timestamps; all under [lock]. *)
type registry = {
  mutable rings : ring list;
  mutable capacity : int;
  mutable t0 : int;
}

let lock = Mutex.create ()

let registry = { rings = []; capacity = default_capacity; t0 = now_ns () }
[@@apex.guarded "trace"]

let generation = Atomic.make 0
let next_seq = Atomic.make 0
let mask = Atomic.make always_on_mask

(* every domain's ring until its first record; never written, so it holds
   no counters *)
let unregistered = { (make_ring ~gen:(-1) ~cap:0) with counts = [||] }
[@@apex.guarded "readonly"]
(* each domain's own ring: written by that domain only *)
let own_key = Domain.DLS.new_key (fun () -> ref unregistered)
[@@apex.guarded "domain"]

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Cold: the calling domain's first record in this generation. *)
let register cell =
  with_lock (fun () ->
      let r = make_ring ~gen:(Atomic.get generation) ~cap:registry.capacity in
      registry.rings <- r :: registry.rings;
      cell := r;
      r)

let own_ring () =
  let cell = Domain.DLS.get own_key in
  let r = !cell in
  if r.gen = Atomic.get generation then r else register cell

let restart ~capacity ~mask:m =
  with_lock (fun () ->
      Atomic.incr generation;
      Atomic.set next_seq 0;
      registry.rings <- [];
      registry.capacity <- capacity;
      registry.t0 <- now_ns ());
  Atomic.set mask m

let enable ?(capacity = 1 lsl 16) () =
  if capacity < 1 || capacity > slot_mask + 1 then
    invalid_arg "Trace.enable: capacity must be in [1, 2^24]";
  restart ~capacity ~mask:all_mask

let disable () = Atomic.set mask always_on_mask
let reset () = restart ~capacity:default_capacity ~mask:always_on_mask
let is_enabled () = Atomic.get mask = all_mask
let[@inline] live k = Atomic.get mask land bit k <> 0

(* Claim the next slot of the caller's ring and fill it. The slot's seq is
   cleared first and set last, so a reader on another domain can tell a
   slot being rewritten from a whole record. *)
let record_slot k ~start ~stop ~a ~b ~note =
  let r = own_ring () in
  let seq = Atomic.fetch_and_add next_seq 1 in
  let i = r.next mod r.cap in
  r.next <- r.next + 1;
  let ki = kind_index k in
  r.seqs.(i) <- -1;
  r.kinds.(i) <- ki;
  r.starts.(i) <- start;
  r.stops.(i) <- stop;
  r.args.(i) <- a;
  r.args2.(i) <- b;
  r.notes.(i) <- note;
  r.counts.(ki) <- r.counts.(ki) + 1;
  r.seqs.(i) <- seq;
  (seq lsl slot_bits) lor i

let begin_ k =
  if not (live k) then -1
  else record_slot k ~start:(now_ns ()) ~stop:(-1) ~a:0 ~b:0 ~note:""

let end_arg tok arg =
  if tok >= 0 then begin
    let r = own_ring () in
    let i = tok land slot_mask in
    if i < r.cap && r.seqs.(i) = tok lsr slot_bits && r.stops.(i) < 0 then begin
      r.stops.(i) <- now_ns ();
      r.args.(i) <- arg
    end
    else r.dropped_ends <- r.dropped_ends + 1
  end

let end_ tok = end_arg tok 0

let instant k a b note =
  if live k then begin
    let now = now_ns () in
    ignore (record_slot k ~start:now ~stop:now ~a ~b ~note : int)
  end

let event k arg = instant k arg 0 ""
let record ?(note = "") k ~a ~b = instant k a b note

(* Cold-path convenience: exception-safe span around [f]. The closure
   allocates at the call site, so this is for refresh/commit/recovery
   lifecycles, not the per-query hot path. *)
let with_span k f =
  let tok = begin_ k in
  match f () with
  | v ->
    end_ tok;
    v
  | exception e ->
    end_ tok;
    raise e

(* --- reading (any domain) --- *)

type span = {
  kind : kind;
  seq : int;
  domain : int;
  start : float;
  stop : float option;  (* None: still open (e.g. aborted by a fault) *)
  arg : int;
  arg2 : int;
  note : string;
  is_event : bool;
}

let snapshot () = with_lock (fun () -> (registry.rings, registry.t0))

let iter_spans f =
  let rings, t0 = snapshot () in
  let secs ns = Float.of_int (ns - t0) *. 1e-9 in
  let spans = ref [] in
  List.iter
    (fun r ->
      for n = max 0 (r.next - r.cap) to r.next - 1 do
        let i = n mod r.cap in
        let seq = r.seqs.(i) in
        if seq >= 0 then begin
          let k = kind_of_index r.kinds.(i) in
          let s =
            { kind = k;
              seq;
              domain = r.domain;
              start = secs r.starts.(i);
              stop = (if r.stops.(i) < 0 then None else Some (secs r.stops.(i)));
              arg = r.args.(i);
              arg2 = r.args2.(i);
              note = r.notes.(i);
              is_event = kind_is_event k }
          in
          (* skip a slot its owner rewrote while we read it *)
          if r.seqs.(i) = seq then spans := s :: !spans
        end
      done)
    rings;
  List.iter f (List.sort (fun a b -> Int.compare a.seq b.seq) !spans)

let kind_counts () =
  let rings, _ = snapshot () in
  List.filter_map
    (fun k ->
      let ki = kind_index k in
      match List.fold_left (fun n r -> n + r.counts.(ki)) 0 rings with
      | 0 -> None
      | n -> Some (k, n))
    all_kinds

type stats = {
  recorded : int;  (* spans + events ever recorded *)
  retained : int;  (* still present in the rings *)
  overwritten : int;  (* lost to ring wrap *)
  dropped_ends : int;  (* end_ calls whose slot had been reused *)
}

let stats () =
  let rings, _ = snapshot () in
  List.fold_left
    (fun st r ->
      let kept = min r.next r.cap in
      { recorded = st.recorded + r.next;
        retained = st.retained + kept;
        overwritten = st.overwritten + (r.next - kept);
        dropped_ends = st.dropped_ends + r.dropped_ends })
    { recorded = 0; retained = 0; overwritten = 0; dropped_ends = 0 }
    rings
