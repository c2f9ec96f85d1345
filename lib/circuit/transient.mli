(** SPICE-style transient analysis: DC operating point followed by
    implicit time stepping. The one-time baseline the paper compares
    against.

    An optional {!Resilience.Budget.t} bounds the whole analysis (DC
    solve plus every time-step Newton); on exhaustion the trace is
    truncated at the last completed step instead of hanging. *)

type result = {
  trace : Numeric.Integrator.trace;
  dc_iterations : int;
}

val run :
  ?method_:Numeric.Integrator.method_ ->
  ?newton_options:Numeric.Newton.options ->
  ?budget:Resilience.Budget.t ->
  ?x0:Linalg.Vec.t ->
  mna:Mna.t ->
  t_stop:float ->
  steps:int ->
  unit ->
  result
(** Fixed-step transient from [t = 0] to [t_stop]. When [x0] is absent
    the DC operating point is computed first. *)

val differential_waveform : Mna.t -> result -> string -> string -> float array
