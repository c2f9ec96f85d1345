(** End-of-solve span summary: the event log folded into a tree of
    per-span aggregates (call count, total/self wall time, CPU time),
    plus the final counter, gauge, and histogram values. This is what
    [--timings] prints and what [Resilience.Report] embeds as the
    ["telemetry"] section of its JSON. *)

type node = {
  name : string;
  calls : int;
  wall : float;  (** total wall seconds across all calls *)
  cpu : float;
  self : float;  (** [wall] minus the children's wall time *)
  children : node list;  (** ordered by decreasing wall time *)
}

type t = {
  duration : float;  (** wall seconds covered by the snapshot *)
  roots : node list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Core.histogram) list;
}

val of_snapshot : Core.snapshot -> t

val pp : Format.formatter -> t -> unit
(** Human-readable tree, e.g. what [rfss … --timings] prints. *)

val add_json : Buffer.t -> t -> unit
