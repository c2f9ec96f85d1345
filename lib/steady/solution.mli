(** The one result shape of the single-time periodic backends
    ({!Shooting}, {!Multiple_shooting}, {!Hb}, {!Periodic_fd}) and its
    one adapter to the structured {!Resilience.Report.t}.

    The shooting backends fill [trace] with the integrated period
    (endpoints included); the collocation backends wrap their [N]
    collocation times and states. *)

type t = {
  trace : Numeric.Integrator.trace;  (** the steady-state period *)
  newton_iterations : int;  (** outer Newton iterations *)
  converged : bool;
  residual_norm : float;
      (** infinity norm of the backend's periodicity residual at exit *)
  outcome : Resilience.Report.outcome;  (** structured exit classification *)
  residual_history : float array;
      (** residual norm per outer Newton iteration, chronological *)
}

val to_report :
  stage:string -> ?wall_seconds:float -> t -> Resilience.Report.t
(** Lift a solution into the report every {!Engine.Result.t} carries:
    strategy ["newton"], one stage named [stage] holding the outcome
    and the Newton iterations, and no linear iterations.
    [wall_seconds] (default 0) stamps the stage and the report
    total. *)

val collocate :
  ?max_newton:int ->
  ?tol:float ->
  ?budget:Resilience.Budget.t ->
  ?x_init:Linalg.Vec.t ->
  dae:Numeric.Dae.t ->
  times:float array ->
  Numeric.Collocation.operator ->
  t
(** The collocation backends' one solve: the {!Numeric.Collocation}
    problem at [times] under [operator], seeded with [x_init] (default
    zero) at every point, run through damped Newton ([max_newton]
    default 60, residual target [tol] default 1e-8, [budget] ticked
    once per iteration) and wrapped with the collocation times. *)
