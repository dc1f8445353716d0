(** The flight recorder's incident side, over the always-on {!Trace} kinds.

    The server's operational records are {!Trace.always_on} kinds, so the
    last seconds of server history are always in the Trace rings. This
    module adds a latency watchdog, a metric baseline captured at
    {!create}, and {!dump}: an incident file holding the retained
    operational records, the tail of the other trace records, and metric
    deltas against the baseline, whose layout is contracted by
    [schemas/incident_schema.json] and checked by {!validate_file}. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** When [metrics] is given, its snapshot is captured as the delta
    baseline for {!dump}. *)

val set_watchdog : t -> threshold:float -> unit
(** Arm the latency watchdog at [threshold] seconds. *)

val check_latency : t -> generation:int -> latency_ns:int -> bool
(** Trip check for one observation: over an armed threshold, count the
    trip, record a [Trace.Watchdog_trip], and return [true]. Zero
    allocation. *)

val trips : t -> int
val dumps : t -> int

val dump : ?reason:string -> ?slo:Json.t -> t -> string -> unit
(** Write the incident document to a file and count the dump: incident
    header, always-on records as events, the last 256 other trace records
    as spans, metric deltas, and the caller's SLO state. *)

val validate : schema:Json.t -> Json.t -> (unit, string list) result
(** Check an incident document against a loaded incident schema. *)

val validate_file :
  schema_path:string -> string -> (unit, string list) result
