(** Exporters and auditors for the event rings.

    Writers read the live {!Trace} rings, merged in sequence order: JSONL
    (one object per line) and Chrome [trace_event] JSON for
    [chrome://tracing] / Perfetto, one thread per domain. The reader,
    aggregators, and JSONL validator operate on saved files so a
    separate process (apexctl) can audit and summarize a trace. *)

val incident_records : unit -> Json.t list * Json.t list
(** [(events, spans)] for an incident file, both oldest first, both in
    the JSONL encoding: every retained {!Trace.always_on} record, and the
    last 256 other retained records (present while tracing is on). *)

val save_jsonl : string -> unit
val save_chrome : string -> unit

type record = {
  name : string;
  is_event : bool;
  seq : int;
  ts : float;
  dur : float;
  arg : int;
  note : string;
}

val read_jsonl : string -> (record list, string) result
(** Blank lines are skipped; an error names its physical line number. *)

val validate_jsonl : schema_path:string -> string -> (int, string list) result
(** Check every line against the contract's [jsonl] section; [Ok n]: all
    [n] records conform. Errors carry [path:line] with physical line
    numbers. A Chrome trace file is a whole document:
    {!Schema.validate_file} checks it. *)

val summarize : record list -> (string * Metrics.histogram) list
(** Per-span-name duration histograms, sorted by name. *)

val event_totals : record list -> (string * int) list

val pp_duration : float -> string
(** Seconds to a human unit: ["250ns"], ["1.5us"], ["3.20ms"], ["1.200s"]. *)

val percentile_table : (string * Metrics.histogram) list -> string
(** Aligned table: count, p50/p90/p99, max, total per phase. *)

val event_table : (string * int) list -> string

val exposition : Metrics.t -> string
(** Prometheus-style text exposition of a registry snapshot: counters and
    gauges as single samples, histograms as cumulative [le]-labeled
    buckets (the histogram's bucket edges) plus [_sum]/[_count]. Names are
    sanitized to [[a-zA-Z0-9_]] and prefixed ["apex_"]. *)

val save_exposition : string -> Metrics.t -> unit
