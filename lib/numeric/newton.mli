(** Damped Newton–Raphson for nonlinear systems [F(x) = 0].

    The linear algebra is abstracted behind a per-iterate solver closure
    so that dense LU, sparse LU, or preconditioned Krylov methods can be
    plugged in. Damping is a simple backtracking line search on the
    residual norm.

    Resilience: a non-finite residual norm terminates immediately with
    [Diverged] (backtracking can never recover from it); a non-finite
    Newton direction is rejected as [Solver_failure] rather than damped;
    and an optional {!Resilience.Budget.t} is ticked once per iteration,
    converting deadline/iteration-cap overruns into a clean [Exhausted]
    outcome instead of an open-ended loop. *)

type problem = {
  residual_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [residual_into x r] overwrites [r] with [F(x)]. *)
  solve_into : Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [solve_into x r delta] overwrites [delta] with [J(x)⁻¹ r] (an
          approximation is acceptable — convergence degrades
          gracefully). *)
}
(** Both callbacks work on buffers that the solve's {!workspace} owns:
    [x], [r] and [delta] are valid only for the duration of the call,
    and a callback must not keep them (nor the iterate handed to
    [on_iteration]) — the solve overwrites them on later iterations. *)

type options = {
  max_iterations : int;  (** default 50 *)
  min_iterations : int;
      (** steps taken before a small residual may end the solve,
          default 0; 1 makes a solve from a foreign start (a surface
          that was not computed for this problem) take one step even
          when the start already meets [abs_tol] *)
  abs_tol : float;  (** residual infinity-norm target, default 1e-9 *)
  step_tol : float;  (** stop when the damped step is this small, default 1e-12 *)
  max_backtracks : int;  (** line-search halvings, default 12 *)
  min_damping : float;  (** smallest accepted damping factor, default 1/4096 *)
  budget : Resilience.Budget.t option;
      (** ticked once per Newton iteration; default [None] (unbounded) *)
}

val default_options : options

type outcome =
  | Converged
  | Stalled
  | Max_iterations
  | Diverged  (** residual norm went NaN/Inf *)
  | Exhausted of Resilience.Budget.exhaustion  (** budget ran out *)
  | Solver_failure of string

type stats = {
  outcome : outcome;
  iterations : int;
  residual_norm : float;  (** infinity norm of the final residual *)
  backtracks : int;  (** total line-search halvings *)
  residual_history : float array;
      (** chronological residual norms, initial residual first, one per
          accepted iterate; bounded (the oldest samples are dropped past
          512 entries) *)
}

val converged : stats -> bool

val report_outcome : stats -> Resilience.Report.outcome
(** Map final stats onto a structured report outcome. *)

type workspace
(** The loop's iterate, trial, residual and step buffers, its
    residual-norm history ring and its state, for solves of one
    dimension. A solve on a reused workspace allocates no buffer,
    closure or ref. Single-domain: one solve at a time. *)

val workspace : int -> workspace
(** [workspace n] holds buffers for [n] unknowns. *)

val solve_in :
  ?options:options ->
  ?on_iteration:(int -> Linalg.Vec.t -> float -> unit) ->
  workspace ->
  problem ->
  Linalg.Vec.t ->
  outcome
(** [solve_in ws problem x0] is {!solve}'s loop on [ws]'s buffers: it
    iterates from [x0] (not modified) and returns the outcome. The
    final iterate is {!iterate}[ ws], which the next solve on [ws]
    overwrites.
    @raise Invalid_argument when [x0] is not of [ws]'s dimension. *)

val iterate : workspace -> Linalg.Vec.t
(** The last solve's final iterate; it belongs to the workspace. *)

val iterations : workspace -> int
(** The last solve's accepted Newton steps. *)

val solve :
  ?options:options ->
  ?on_iteration:(int -> Linalg.Vec.t -> float -> unit) ->
  problem ->
  Linalg.Vec.t ->
  Linalg.Vec.t * stats
(** [solve problem x0] iterates from [x0] (not modified) and returns the
    final iterate with statistics. It runs {!solve_in} on a fresh
    {!workspace}; the returned iterate is one of its buffers and
    belongs to the caller. Exceptions raised by the solver
    closure are captured as [Solver_failure], except
    {!Resilience.Budget.Exhausted} which becomes [Exhausted].

    [on_iteration k x rnorm] is called before iteration [k] with the
    iterate and its ‖F‖∞ ([k = 0] for the start). An exception it
    raises abandons the solve and propagates; the steps taken so far
    are still counted in telemetry. *)
