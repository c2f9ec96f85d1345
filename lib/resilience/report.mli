(** Structured, machine-readable solve reports.

    Every resilient engine produces one of these instead of (or in
    addition to) a bare converged flag: what the outcome was, which
    ladder strategy won, what each stage did, how the residual evolved,
    and how much wall time was spent. [to_json_string] emits a
    single-line JSON object (hand-rolled; no external dependency) so
    reports can be scraped from CLI output or shipped to a service
    log pipeline. *)

type outcome =
  | Converged
  | Failed of string
  | Exhausted of Budget.exhaustion

type stage = {
  name : string;
  status : [ `Success | `Failed of string | `Skipped ];
  iterations : int;  (** Newton iterations spent in this stage *)
  wall_seconds : float;
}

type t = {
  outcome : outcome;
  strategy : string option;  (** winning ladder stage, when any *)
  stages : stage list;
  residual_trajectory : float array;
      (** residual infinity norms per Newton iteration, across stages *)
  residual_norm : float;  (** final residual norm *)
  newton_iterations : int;
  linear_iterations : int;
  wall_seconds : float;
  telemetry : Telemetry.Summary.t option;
      (** per-solve span summary, when telemetry was enabled; rendered
          as the ["telemetry"] section of the JSON report *)
  sections : (string * string) list;
      (** extra top-level JSON sections [(key, pre-rendered JSON value)]
          appended verbatim by higher layers (e.g. the diagnostics
          library embeds a ["diagnostics"] section); the report module
          itself never interprets them *)
}

val add_section : t -> string -> string -> t
(** [add_section r name json] appends a top-level JSON section; [json]
    must already be valid JSON text. *)

val of_ladder :
  ?iterations_of:(string -> int) ->
  ?telemetry:Telemetry.Summary.t ->
  residual_trajectory:float array ->
  residual_norm:float ->
  newton_iterations:int ->
  linear_iterations:int ->
  wall_seconds:float ->
  'a Ladder.run ->
  t
(** Build a report from a ladder run. [iterations_of] maps a stage name
    to the Newton iterations it consumed (default 0). The outcome is
    [Converged] when the ladder produced a value, [Exhausted] when it
    stopped on a budget, [Failed] otherwise. *)

val to_json_string : t -> string
(** Single-line JSON. *)
