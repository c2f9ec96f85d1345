(** Runtime profiling hooks: a self-monitoring OCaml 5
    [Runtime_events] consumer that folds the runtime's own GC phase
    spans into {!Core.histogram}s, per ring buffer (= per domain).

    Usage: [start] before the work under measurement (it switches the
    runtime's event collection on and opens an in-process cursor),
    [poll] after — and periodically during long runs, the ring buffers
    are finite — then read [stats] or fold everything into the current
    telemetry recorder with [observe_into_telemetry].

    Only the two top-level GC phases are timed — [EV_MINOR] (a whole
    minor collection, a genuine mutator pause) and [EV_MAJOR] (one
    major slice) — because their sub-phases nest inside them and would
    double-count wall time. All durations are in seconds. *)

type t

type stats = {
  minor_pause : Core.histogram;  (** seconds per minor collection *)
  major_pause : Core.histogram;  (** seconds per major slice *)
  minor_collections : int;
  major_slices : int;
  domains_seen : int;  (** distinct ring buffers that emitted events *)
  domain_spawns : int;  (** EV_DOMAIN_SPAWN lifecycle events *)
  forced_minors : int;
      (** minor collections the runtime forced to build an array of
          more than 256 elements from a young value
          (EV_C_FORCE_MINOR_MAKE_VECT); they count in
          [minor_collections] too *)
  lost_events : int;  (** ring overwrites before the consumer caught up *)
}

val start : unit -> t option
(** Switch on runtime event collection and open a cursor on this
    process's own ring buffers. [None] when the runtime refuses (e.g.
    ring creation failed) — callers degrade to no GC attribution. *)

val poll : t -> unit
(** Drain pending events into the accumulators (bounded: at most ~256k
    events per call, so a hot ring cannot wedge the caller). *)

val stats : t -> stats
(** Aggregate over every ring seen so far. Call [poll] first. *)

val observe_into_telemetry : ?prefix:string -> t -> unit
(** Fold [stats] into the current domain's recorder (no-op when
    disabled): histograms [<prefix>.minor_pause_seconds] /
    [.major_pause_seconds], gauges [.minor_collections],
    [.major_slices], [.domains_seen], [.forced_minors], [.lost_events], and
    [.minor_pause_p99] / [.major_pause_p99] when samples exist.
    Default prefix ["gc"]. *)

val stop : t -> unit
(** Free the cursor. Safe to call twice; [poll] becomes a no-op. *)
