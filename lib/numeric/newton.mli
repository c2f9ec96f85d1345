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
(** Both callbacks work on buffers that {!solve} owns: [x], [r] and
    [delta] are valid only for the duration of the call, and a callback
    must not keep them (nor the iterate handed to [on_iteration]) —
    {!solve} overwrites them on later iterations. *)

type options = {
  max_iterations : int;  (** default 50 *)
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

val solve :
  ?options:options ->
  ?on_iteration:(int -> Linalg.Vec.t -> float -> unit) ->
  problem ->
  Linalg.Vec.t ->
  Linalg.Vec.t * stats
(** [solve problem x0] iterates from [x0] (not modified) and returns the
    final iterate with statistics. It allocates its iterate, trial,
    residual and step buffers once per call; the returned iterate is
    one of them and belongs to the caller. Exceptions raised by the solver
    closure are captured as [Solver_failure], except
    {!Resilience.Budget.Exhausted} which becomes [Exhausted]. *)
