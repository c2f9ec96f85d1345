(** Multiple shooting for periodic steady state (paper ref. [6],
    Parkhurst & Ogborn): the period is split into [segments] windows
    whose initial states are solved simultaneously, with matching
    conditions chaining each window's endpoint to the next window's
    start and a periodic wrap at the end.

    Compared to single shooting this shortens each integration window,
    which tames the monodromy's conditioning on stiff or rapidly
    contracting circuits; it is also the natural stepping stone between
    shooting and the full collocation of {!Periodic_fd}.

    The outer Newton loop is {!Shooting.outer_newton}, shared with
    single shooting, so the budget, failure classification and
    iteration cap behave identically; the solution's [trace] is the
    stitched period, [segments * steps_per_segment + 1] samples.

    Resilience: an optional {!Resilience.Budget.t} bounds outer
    iterations and inner time-step Newton solves; non-finite defects or
    updates abort cleanly and are classified in [outcome]. *)

val solve :
  ?max_newton:int ->
  ?tol:float ->
  ?steps_per_segment:int ->
  ?budget:Resilience.Budget.t ->
  ?x0:Linalg.Vec.t ->
  dae:Numeric.Dae.t ->
  period:float ->
  segments:int ->
  unit ->
  Solution.t
(** Defaults: [max_newton = 25], [tol = 1e-8],
    [steps_per_segment = 50]. [x0] (default the zero state) is the
    first window's start; the first integration is one chained pass
    from it, each window starting where the previous one ends, and a
    failure there is classified like any other integration failure.
    The residual is the infinity norm of all matching defects. Budget
    exhaustion returns the best iterate with
    [outcome = Exhausted _].
    @raise Invalid_argument when [segments < 1]. *)
