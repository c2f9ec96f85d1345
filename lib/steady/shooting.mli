(** Single-time Newton shooting for periodic steady state (paper
    refs. [1, 6, 10]): find [x0] with [Φ_T(x0) = x0] where [Φ_T]
    integrates the circuit over one period.

    The monodromy matrix [∂Φ_T/∂x0] is propagated step-by-step through
    the backward-Euler sensitivity recursion; the Newton update solves
    the dense [(M − I)] system. This is the baseline whose cost grows
    linearly with the number of time steps per period — i.e. linearly
    with the fast/slow frequency disparity when the period is the
    difference period (paper §3, “Computational speedup”). Each step
    costs one sparse-LU refactor plus [n] triangular solves for the
    sensitivity.

    An integration after the first one of a solve joins the previous
    trajectory when it rejoins it: once its state at some step [k ≥ 1]
    equals the previous integration's state [k] bit for bit, under an
    unchanged workspace structure ({!Numeric.Integrator.structure}),
    and the previous end state meets [tol] against the current [x0],
    it takes the previous states [k+1…N] as its own and skips the
    monodromy, which the converged loop never reads. The result is the
    one a full integration gives, bit for bit. A solve that converges
    after [u] updates therefore integrates [u] full periods plus the
    steps up to the rejoin (about 20 on the unbalanced mixer at 10
    steps per LO cycle), not [u + 1] periods; where the trajectories
    never rejoin bit for bit it is [u + 1] periods, as before.

    Resilience: an optional {!Resilience.Budget.t} is ticked per outer
    shooting iteration and threaded into every inner time-step Newton
    solve; non-finite periodicity residuals or shooting updates abort
    the outer loop instead of propagating NaN. Every exit path is
    classified in the solution's [outcome]. The outer loop,
    {!outer_newton}, is the one copy of that policy; {!Multiple_shooting}
    runs it too. *)

val solve :
  ?max_newton:int ->
  ?tol:float ->
  ?steps_per_period:int ->
  ?budget:Resilience.Budget.t ->
  ?x0:Linalg.Vec.t ->
  dae:Numeric.Dae.t ->
  period:float ->
  unit ->
  Solution.t
(** Defaults: [max_newton = 25], [tol = 1e-8] (infinity norm on the
    periodicity residual), [steps_per_period = 200]. When [x0] is
    absent the zero state is used; pass a DC operating point for
    faster convergence. [budget] bounds the combined work of outer
    shooting iterations and inner time-step Newton solves; exhaustion
    yields [outcome = Exhausted _] with the best iterate so far. The
    solution's [trace] is one steady-state period, [steps_per_period +
    1] samples from [t = 0] to [t = period], and its residual is
    [‖Φ_T(x0) − x0‖∞]. Telemetry: the ["shooting.steps"] counter adds
    the steps each integration ran, ["shooting.steps_reused"] the
    steps a joining integration took from the previous one, and the
    ["shooting.join_step"] histogram the step at which it joined.
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
    monodromy). Building block shared with {!Multiple_shooting}; it
    always integrates the whole window.

    Each step's sensitivity update factors the step Jacobian
    [J(x⁺) = C(x⁺)/h + G(x⁺)] once in the [workspace]; the next step's
    first Newton iteration reuses that factor, so [S] costs [n]
    triangular solves per step and no extra factorization. One
    workspace serves every window of a solve.
    @raise Failure if an inner Newton solve fails or a step Jacobian
    is singular.
    @raise Resilience.Budget.Exhausted when the inner Newton budget
    runs out mid-window. *)

val outer_newton :
  name:string ->
  diverged:string ->
  max_newton:int ->
  tol:float ->
  ?budget:Resilience.Budget.t ->
  integrate:(unit -> 'w) ->
  defect:('w -> 'd * float) ->
  update:('w -> 'd -> Linalg.Vec.t) ->
  apply:(Linalg.Vec.t -> unit) ->
  trace:('w option -> Numeric.Integrator.trace) ->
  unit ->
  Solution.t
(** The outer Newton loop of both shooting backends, shared with
    {!Multiple_shooting}. While the defect norm exceeds [tol] and fewer
    than [max_newton] updates were applied, each iteration ticks
    [budget], calls [integrate] from the current unknowns, records the
    norm from [defect] in the residual history and the
    ["<name>.residual"] observation, then applies [update]'s correction
    with [apply]. Exits are classified in the outcome: budget
    exhaustion as [Exhausted]; an integration or [update] [Failure msg]
    as [Failed msg]; a non-finite norm as [Failed diverged]; a
    non-finite correction as [Failed "non-finite <name> update"]; the
    cap as [Failed "max shooting iterations"]. Unless converged, the
    final unknowns are integrated once more (best effort: a failure
    keeps the last integration), and [trace] turns that integration
    ([None] when there was none) into the solution's trace. *)
