(* Epoch-based reclamation for published index generations.

   The registry holds exactly one CURRENT entry in an [Atomic]; readers pin
   it with an increment-then-validate loop and writers publish a successor
   with one atomic exchange. Superseded entries park on a retire list and
   are freed only once their pin count has drained — the GenIndex
   discipline: queries in flight keep serving the generation they pinned,
   no publish ever waits for them, and a failed publish rolls back to the
   previous generation, which is exempt from retirement until the next
   successful publish supersedes it.

   Memory model: an entry's immutable fields ([generation], [payload]) are
   written before the [Atomic.exchange] that publishes it, and readers
   obtain the entry through [Atomic.get] — the release/acquire pairing of
   OCaml's atomics makes the payload fully visible to every reader domain.

   The pin/retire race is benign by construction: a reader may increment
   the pin count of an entry that was already superseded (it read [current]
   just before the exchange), but the validate step then sees a different
   current entry, unpins, and retries — it never *uses* the stale entry.
   [retire] in turn frees only entries whose pin count is zero at
   inspection time; a transient pin can at worst postpone the free to the
   next drain, never resurrect a freed entry, because readers only reach
   entries through [current]. *)

type 'a entry = {
  generation : int;
  payload : 'a;
  born : int;  (* monotonic publish time (ns), for epoch ages in [info] *)
  pins : int Atomic.t;
  freed : bool Atomic.t;
      (* observability for the test harness: set exactly once, by the
         drain that disposes the entry; a reader that validated its pin
         must never observe [true] *)
}

type 'a t = {
  current : 'a entry Atomic.t;
  next_generation : int Atomic.t;
  writer : Mutex.t;  (* serializes publish / rollback / retire *)
  mutable retired : 'a entry list; [@apex.guarded "retire"]
      (* superseded entries whose pins have not drained yet; writer-owned
         under [writer] *)
  mutable previous : 'a entry option; [@apex.guarded "retire"]
      (* the entry superseded by the newest publish — the rollback target,
         never freed while it holds this slot *)
  mutable published : int; [@apex.guarded "retire"]
  mutable freed_total : int; [@apex.guarded "retire"]
  mutable rollbacks : int; [@apex.guarded "retire"]
}
[@@apex.shared]

let make_entry ~generation payload =
  { generation;
    payload;
    born = Repro_telemetry.Trace.now_ns ();
    pins = Atomic.make 0;
    freed = Atomic.make false }

let create payload =
  { current = Atomic.make (make_entry ~generation:1 payload);
    next_generation = Atomic.make 2;
    writer = Mutex.create ();
    retired = [];
    previous = None;
    published = 1;
    freed_total = 0;
    rollbacks = 0
  }

(* Reader side — lock-free and allocation-free. *)

let rec pin t =
  let e = Atomic.get t.current in
  Atomic.incr e.pins;
  if Atomic.get t.current == e then e
  else begin
    (* lost the race with a publish: the entry we pinned is no longer
       current — release it (its retirement may be waiting on us) and take
       the new current instead *)
    Atomic.decr e.pins;
    pin t
  end

let unpin e = Atomic.decr e.pins
let payload e = e.payload
let generation e = e.generation
let is_freed e = Atomic.get e.freed
let current_generation t = (Atomic.get t.current).generation

(* Writer side — serialized on [t.writer]. *)

let publish t payload =
  Mutex.lock t.writer;
  let generation = Atomic.fetch_and_add t.next_generation 1 in
  let entry = make_entry ~generation payload in
  let old = Atomic.exchange t.current entry in
  (* the former rollback target is now two generations behind: retire it *)
  (match t.previous with
   | Some p -> t.retired <- p :: t.retired
   | None -> ());
  t.previous <- Some old;
  t.published <- t.published + 1;
  Mutex.unlock t.writer;
  generation

let rollback t =
  Mutex.lock t.writer;
  let restored =
    match t.previous with
    | None -> None
    | Some prev ->
      let bad = Atomic.exchange t.current prev in
      t.retired <- bad :: t.retired;
      t.previous <- None;
      t.rollbacks <- t.rollbacks + 1;
      Some prev.generation
  in
  Mutex.unlock t.writer;
  restored

let retire ?dispose t =
  Mutex.lock t.writer;
  let cur = Atomic.get t.current in
  let still, drained =
    List.partition (fun e -> e == cur || Atomic.get e.pins > 0) t.retired
  in
  t.retired <- still;
  t.freed_total <- t.freed_total + List.length drained;
  List.iter
    (fun e ->
      Atomic.set e.freed true;
      match dispose with Some f -> f e.payload | None -> ())
    drained;
  Mutex.unlock t.writer;
  List.length drained

let pinned t = Atomic.get (Atomic.get t.current).pins

(* Per-entry view of everything the registry is holding alive, for the
   introspection endpoint: the current entry, the rollback target, and
   the retire list, each with its pin count and age. Taken under the
   writer lock, so the listing is a consistent cut of writer state (pin
   counts themselves stay racy snapshots, as everywhere). *)
type info = {
  info_generation : int;
  info_state : string;  (* "current" | "previous" | "retired" *)
  info_pins : int;
  info_age : float;  (* seconds since the entry was created *)
}

let info t =
  Mutex.lock t.writer;
  let now = Repro_telemetry.Trace.now_ns () in
  let of_entry state e =
    { info_generation = e.generation;
      info_state = state;
      info_pins = Atomic.get e.pins;
      info_age = Float.of_int (now - e.born) *. 1e-9 }
  in
  let infos =
    (of_entry "current" (Atomic.get t.current)
     ::
     (match t.previous with Some p -> [ of_entry "previous" p ] | None -> []))
    @ List.map (of_entry "retired") t.retired
  in
  Mutex.unlock t.writer;
  infos

type stats = { generations : int; freed : int; retired_live : int; rolled_back : int }

let stats t =
  Mutex.lock t.writer;
  let s =
    { generations = t.published;
      freed = t.freed_total;
      retired_live = List.length t.retired;
      rolled_back = t.rollbacks
    }
  in
  Mutex.unlock t.writer;
  s
