(** Single-time Newton shooting for periodic steady state (paper
    refs. [1, 6, 10]): find [x0] with [Φ_T(x0) = x0] where [Φ_T]
    integrates the circuit over one period.

    The monodromy matrix [∂Φ_T/∂x0] is propagated step-by-step through
    the backward-Euler sensitivity recursion; the Newton update solves
    the dense [(M − I)] system. This is the baseline whose cost grows
    linearly with the number of time steps per period — i.e. linearly
    with the fast/slow frequency disparity when the period is the
    difference period (paper §3, “Computational speedup”).

    Resilience: an optional {!Resilience.Budget.t} is ticked per outer
    shooting iteration and threaded into every inner time-step Newton
    solve; non-finite periodicity residuals or shooting updates abort
    the outer loop instead of propagating NaN. Every exit path is
    classified in the [outcome] field. *)

type result = {
  x0 : Linalg.Vec.t;  (** periodic initial state *)
  trace : Numeric.Integrator.trace;  (** one steady-state period *)
  newton_iterations : int;
  total_time_steps : int;  (** integration steps summed over all Newton iterations *)
  converged : bool;
  residual_norm : float;  (** ‖Φ(x0) − x0‖∞ at exit *)
  outcome : Resilience.Report.outcome;  (** structured exit classification *)
  residual_history : float array;
      (** periodicity residual per outer Newton iteration, chronological *)
}

val solve :
  ?max_newton:int ->
  ?tol:float ->
  ?steps_per_period:int ->
  ?budget:Resilience.Budget.t ->
  ?x0:Linalg.Vec.t ->
  dae:Numeric.Dae.t ->
  period:float ->
  unit ->
  result
(** Defaults: [max_newton = 25], [tol = 1e-8] (infinity norm on the
    periodicity residual), [steps_per_period = 200]. When [x0] is
    absent the zero state is used; pass a DC operating point for
    faster convergence. [budget] bounds the combined work of outer
    shooting iterations and inner time-step Newton solves; exhaustion
    yields [outcome = Exhausted _] with the best iterate so far.
    @raise Invalid_argument if [steps_per_period < 1]. *)

val integrate_with_sensitivity :
  ?newton_options:Numeric.Newton.options ->
  workspace:Numeric.Integrator.workspace ->
  x0:Linalg.Vec.t ->
  t0:float ->
  duration:float ->
  steps:int ->
  unit ->
  Numeric.Integrator.trace * Linalg.Mat.t
(** Backward-Euler integration over [[t0, t0 + duration]] that also
    propagates the sensitivity [∂x(t0+duration)/∂x(t0)] (the window
    monodromy). Building block shared with {!Multiple_shooting}.

    Each step's sensitivity update factors the step Jacobian
    [J(x⁺) = C(x⁺)/h + G(x⁺)] once in the [workspace]; the next step's
    first Newton iteration reuses that factor, so [S] costs [n]
    triangular solves per step and no extra factorization. One
    workspace serves every window of a solve.
    @raise Failure if an inner Newton solve fails or a step Jacobian
    is singular.
    @raise Resilience.Budget.Exhausted when the inner Newton budget
    runs out mid-window. *)

val to_report : ?wall_seconds:float -> result -> Resilience.Report.t
(** Adapter to the unified engine API: lift this engine's bespoke
    result into the structured report every {!Engine.Result.t}
    carries. [wall_seconds] (default 0) stamps the single
    ["shooting"] stage and the report total. *)
