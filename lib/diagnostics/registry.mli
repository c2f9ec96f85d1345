(** Typed metric registry with two exposition formats.

    The registry is the bridge between the solver-side instrumentation
    ({!Telemetry} counters/gauges/histograms, plus diagnostics-computed
    quantities such as condition estimates) and the outside world:

    - Prometheus text exposition (what [--metrics foo.prom] writes),
    - CSV ([--metrics foo.csv]).

    Metric names are free-form dotted strings on the way in
    (["newton.iterations"]) and sanitized on the way out: a [rfss_]
    prefix, dots and other invalid characters mapped to underscores,
    and a [_total] suffix for counters in Prometheus exposition.
    Parsers for both text formats are provided so tests can round-trip
    what the CLI writes. *)

type kind = Counter | Gauge

type sample = {
  name : string;  (** raw dotted name, pre-sanitization *)
  labels : (string * string) list;  (** sorted by key *)
  kind : kind;
  value : float;
  help : string option;
}

type t

val create : unit -> t

val counter :
  ?help:string -> ?labels:(string * string) list -> t -> string -> float -> unit
(** Register (or overwrite) a counter sample. Counters are cumulative
    totals; the registry stores one scrape's worth, it does not sum. *)

val gauge :
  ?help:string -> ?labels:(string * string) list -> t -> string -> float -> unit

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  t ->
  string ->
  Telemetry.histogram ->
  unit
(** Register (or overwrite) a bucketed histogram family. In Prometheus
    exposition it renders as cumulative [_bucket{le="..."}] series on
    the fixed {!Telemetry.bucket_le} layout plus [_sum] and [_count];
    in CSV and JSON it flattens to count/sum/min/max/p50/p90/p99. *)

val samples : t -> sample list
(** Scalar samples only, sorted by (name, labels) for deterministic
    output. Histograms are listed by {!histograms}. *)

val histograms : t -> (string * (string * string) list * Telemetry.histogram) list
(** Registered histogram families, sorted. *)

val of_telemetry : ?registry:t -> Telemetry.snapshot -> t
(** Fold a telemetry snapshot into a registry ([registry] when given,
    a fresh one otherwise): counters map to counters; gauges to gauges;
    each histogram becomes a real {!histogram} family plus sibling
    [<name>.min] / [<name>.max] gauges (the Prometheus histogram shape
    has no min/max); the span tree is aggregated by span name into
    [span.wall_seconds] / [span.cpu_seconds] gauges and a [span.calls]
    counter, labelled [span="<name>"]. *)

val to_prometheus : t -> string
(** Text exposition format: [# HELP] and [# TYPE] lines for {e every}
    metric family (a generated fallback when no help text was given),
    then one sample line each. Histogram families emit the cumulative
    [_bucket] series (ending in [le="+Inf"]), [_sum] and [_count]. *)

val to_csv : t -> string
(** Header [name,labels,kind,value]; labels rendered [k=v;k2=v2];
    fields quoted when needed. The [name] column carries the sanitized
    name without the counter [_total] suffix (the [kind] column already
    says so). *)

val parse_prometheus : string -> (string * (string * string) list * float) list
(** Sample lines of a Prometheus text page (comments skipped), in file
    order. @raise Failure on lines that are neither. *)
