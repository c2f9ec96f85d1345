(** Domain-local solve telemetry: hierarchical spans, monotonic
    counters, gauges, and value histograms.

    Disabled (the default) every entry point is a load of the
    process-wide count of live recorders and a match — effectively
    free, so the whole solver stack stays instrumented
    unconditionally; while some domain records, the others add a
    domain-local lookup. [enable] installs a fresh recorder;
    spans then capture wall and CPU timestamps from {!Clock} (relative
    to the enable instant) into an in-memory event log that the sinks
    ({!Sink}, {!Summary}) render after the fact. Counters, gauges, and
    histograms accumulate in hash tables rather than the event log so
    hot-path ticks (one per GMRES iteration, per dense LU factor, …)
    stay cheap even when enabled.

    The recorder lives in {!Domain.DLS}, so each OCaml 5 domain carries
    its own independent registry: [enable]/[snapshot]/[disable] on a
    worker domain of {!Engine.Sweep}'s pool never interleaves spans or
    races counters with the main domain's recorder. Within one domain
    the API remains single-threaded by design, like the solvers it
    instruments. *)

type event =
  | Span_begin of {
      id : int;
      parent : int;  (** id of the enclosing span, or -1 at top level *)
      name : string;
      wall : float;
      cpu : float;
    }
  | Span_end of { id : int; name : string; wall : float; cpu : float }

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
      (** per-bucket sample counts on the fixed log layout below;
          length {!bucket_count} *)
}

val bucket_count : int
(** Number of buckets in every histogram: an underflow bucket, 3 per
    decade from 1e-9 to 1e3, and an overflow bucket. *)

val bucket_le : int -> float
(** Inclusive upper bound of bucket [i] ([infinity] for the last). *)

val bucket_index : float -> int
(** Index of the bucket a sample falls into (NaN, zero and negative
    values land in the underflow bucket). *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0..1]) from the bucket
    counts: geometric midpoint of the bucket holding the target rank,
    clamped to [[h.min, h.max]]. NaN on an empty histogram. Resolution
    is one bucket (≈2.2x in value at 3 buckets/decade). *)

type snapshot = {
  events : event array;  (** well-nested: open spans are closed at capture *)
  duration : float;  (** wall seconds from [enable] to capture *)
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** last written value, sorted *)
  histograms : (string * histogram) list;  (** sorted *)
}

val enable : unit -> unit
(** Start recording with a fresh, empty recorder. *)

val disable : unit -> unit
(** Stop recording and drop all recorded data. *)

val enabled : unit -> bool

val enabled_at : unit -> float option
(** Absolute {!Clock.wall} reading captured by [enable] — the instant
    all recorded span timestamps are relative to. Lets a merge step
    place snapshots from different recorders (domains) on one time
    axis. [None] when disabled. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as a child of the innermost open span.
    Exception-safe: the span is closed (and the exception re-raised)
    when [f] raises. When disabled this is just [f ()]. *)

val span_app : string -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [span_app name f a b] is [span name (fun () -> f a b)] without the
    closure: it allocates nothing of its own, for spans around
    per-evaluation callbacks. *)

val count : ?by:int -> string -> unit
(** Add [by] (default 1) to a named monotonic counter. *)

val gauge : string -> float -> unit
(** Record the latest value of a named quantity (e.g. LU fill-in). *)

val observe : string -> float -> unit
(** Feed one sample into a named value histogram. *)

val merge_histogram : string -> histogram -> unit
(** Fold a pre-accumulated histogram (e.g. GC pauses from the
    {!Runtime} monitor, or another domain's snapshot) into the named
    accumulator, bucket by bucket. No-op when disabled or empty. *)

val with_alloc_gauges : string -> (unit -> 'a) -> 'a
(** [with_alloc_gauges prefix f] runs [f] and records the allocation it
    caused on this domain as gauges [prefix ^ ".minor_words"],
    [".major_words"] and [".promoted_words"] ([Gc.quick_stat] deltas,
    in words). No-op overhead when recording is disabled, and skipped
    entirely under an overridden clock ({!Clock.overridden}) — GC
    deltas are not replayable, so deterministic-mode traces omit
    them. *)

val mark : unit -> int
(** Position in the event log; pass to [snapshot ~since] to summarize
    only the events of one solve. Returns 0 when disabled. *)

val snapshot : ?since:int -> unit -> snapshot option
(** Capture the events from [since] (default: the beginning) to now
    without disturbing recording. Open spans are closed at the capture
    instant in the returned copy. [None] when disabled. *)
