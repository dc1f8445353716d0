(** Event recorder: spans and instant events in one preallocated ring per
    domain, merged by a global sequence number.

    Each domain writes only its own ring, so concurrent readers never
    lose or tear records. Disabled (the default) only the {!always_on}
    operational kinds record, into rings of {!default_capacity} slots;
    every other entry point is a flag test — no allocation, no syscalls —
    so instrumentation can stay in hot paths unconditionally. Tokens are
    plain ints; [-1] means "not recorded" and makes the matching [end_]
    free. *)

(** Span and event kinds. The first six are the query pipeline phases; the
    middle group are enclosing units of work; the [Path_promoted ..
    Watchdog_trip] tail are instant events: adaptation decisions,
    block-skip notifications, and the server's operational records. *)
type kind =
  | Parse
  | Plan
  | Probe
  | Fetch
  | Join
  | Materialize
  | Query
  | Refresh
  | Mine
  | Prune
  | Traverse
  | Update_apply
  | Snapshot_commit
  | Recovery
  | Decode
      (** block-compressed extent payload decode; arg = blocks decoded *)
  | Epoch_publish
      (** serving: freeze + deep-copy + registry publish of a new epoch;
          arg = the published generation *)
  | Epoch_retire
      (** serving: one retire-list drain; arg = epochs actually freed *)
  | Reader_pin
      (** serving: one pinned query evaluation on a reader domain;
          arg = the generation served *)
  | Path_promoted
  | Path_evicted
  | Delta_flushed
  | Epoch_committed
  | Epoch_rolled_back  (** arg = the generation restored *)
  | Update_aborted
  | Block_skip
      (** instant: compressed blocks proven disjoint from a probe by their
          header range test and never decoded; arg = blocks skipped *)
  | Slo_breach
      (** instant: an SLO objective's sliding-window estimate crossed its
          threshold; arg = objective index, arg2 = burn rate x1000,
          note = objective name *)
  | Update_batch  (** instant: an update batch reached the server; arg = ops *)
  | Drain
      (** instant: one feedback drain; arg = observations drained,
          arg2 = feedback dropped so far *)
  | Refresh_published
      (** instant: a refresh was published; arg = generation,
          arg2 = plan changes *)
  | Watchdog_trip
      (** instant: a drained query exceeded the latency watchdog;
          arg = generation, arg2 = latency ns *)

val kind_name : kind -> string
val kind_is_event : kind -> bool

val always_on : kind -> bool
(** Recorded even while tracing is disabled: [Epoch_publish],
    [Epoch_retire], [Epoch_rolled_back], [Slo_breach] and the server's
    drain-side records [Update_batch .. Watchdog_trip]. *)

val always_on_kinds : kind list

val now_ns : unit -> int
(** The recorder's clock: monotonic nanoseconds, no allocation. *)

val default_capacity : int
(** Ring slots per domain while tracing is disabled: 1024. *)

val enable : ?capacity:int -> unit -> unit
(** Drop every ring, record every kind from now on, and give each domain
    a fresh ring of [capacity] slots (default 65536, at most 2^24) on its
    next record. Call while no other domain has a span open. *)

val disable : unit -> unit
(** Back to the always-on kinds; the rings are kept for export. *)

val reset : unit -> unit
(** {!disable} and drop every ring; new rings get {!default_capacity}. *)

val is_enabled : unit -> bool

val begin_ : kind -> int
(** Open a span; returns a token for [end_]. Returns [-1] without
    allocating when the kind is not being recorded. *)

val end_ : int -> unit

val end_arg : int -> int -> unit
(** [end_arg tok arg] closes the span and attaches an integer attribute
    (result cardinality, page count, ...). Must run on the domain that
    opened the span. *)

val event : kind -> int -> unit
(** Record an instant event with an integer attribute. *)

val record : ?note:string -> kind -> a:int -> b:int -> unit
(** Instant event with two integer attributes ([arg], [arg2]); zero
    allocation without [note], which allocates — cold paths only. *)

val with_span : kind -> (unit -> 'a) -> 'a
(** Exception-safe span around [f]; allocates a closure, so for
    refresh/commit/recovery lifecycles, not the per-query hot path. *)

type span = {
  kind : kind;
  seq : int;  (** global order across domains *)
  domain : int;  (** the recording domain's id *)
  start : float;  (** seconds since the last [enable]/[reset] *)
  stop : float option;  (** [None]: never closed (e.g. aborted by fault) *)
  arg : int;
  arg2 : int;
  note : string;
  is_event : bool;
}

val iter_spans : (span -> unit) -> unit
(** Records still retained in any domain's ring, in sequence order. *)

val kind_counts : unit -> (kind * int) list
(** Per-kind totals since [enable]/[reset]; survives ring wrap. *)

type stats = {
  recorded : int;
  retained : int;
  overwritten : int;
  dropped_ends : int;
}

val stats : unit -> stats
