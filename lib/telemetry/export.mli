(** The Chrome [trace_event] exporter and reader for the event rings.

    The writer reads the live {!Trace} rings, merged in sequence order,
    into one JSON document for [chrome://tracing] / Perfetto, one thread
    per domain. The reader and aggregators operate on saved files so a
    separate process (apexctl) can summarize a trace; the trace contract
    checks a saved file through {!Schema.validate_file}. *)

val incident_records : unit -> Json.t list * Json.t list
(** [(events, spans)] for an incident file, both oldest first, both in
    the trace file's event encoding: every retained {!Trace.always_on}
    record, and the last 256 other retained records (present while
    tracing is on). *)

val save_chrome : string -> unit
(** Every retained record as one Chrome event: [ph] ["X"] for a span,
    ["i"] for an instant event, [ts]/[dur] in microseconds, the domain as
    [tid]; [args] holds [seq] and [arg], [arg2] when non-zero, [note] when
    not empty, and [open: true] for a span that was never closed. *)

type record = {
  name : string;
  is_event : bool;
  seq : int;
  ts : float;  (** seconds *)
  dur : float;  (** seconds; 0 for an instant event or an open span *)
  arg : int;
  note : string;
}

val read_trace : string -> (record list, string) result
(** The records of a file {!save_chrome} wrote, in file order; an error
    names the offending [traceEvents] index. *)

val summarize : record list -> (string * Metrics.histogram) list
(** Per-span-name duration histograms, sorted by name. *)

val event_totals : record list -> (string * int) list

val pp_duration : float -> string
(** Seconds to a human unit: ["250ns"], ["1.5us"], ["3.20ms"], ["1.200s"]. *)

val percentile_table : (string * Metrics.histogram) list -> string
(** Aligned table: count, p50/p90/p99, max, total per phase. *)

val event_table : (string * int) list -> string
