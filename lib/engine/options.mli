(** One options record for all five steady-state backends, under one
    normalized vocabulary.

    Historically every engine spelled the same concepts differently —
    the Newton cap was [max_newton] in the solvers but [max_iterations]
    in {!Numeric.Newton} and [max_iter] in the GMRES records, and the
    convergence target was variously [tol], [abs_tol] or a
    linear-solver-relative [tol]. Here there is exactly one [tol] (the
    nonlinear residual infinity-norm target) and one [max_newton] (the
    outer Newton cap); the per-backend discretization knobs keep their
    own names because they genuinely differ. DESIGN.md §11 tabulates
    the mapping onto each backend's native record.

    The MPDE backend always runs the [Backward] scheme with the
    [Gmres_sweep] linear solver; other schemes and linear solvers are
    reached through {!Mpde.Solver.options} directly. Its health
    assessment, like every backend's, is
    {!Diagnostics.Health.of_report}; the condition estimate and the
    diagonal check are added by {!Diagnostics.Health.probe} on
    request, never by an option. *)

type t = {
  (* shared Newton controls (every backend) *)
  tol : float;  (** residual infinity-norm target; default [1e-8] *)
  max_newton : int;  (** outer Newton iteration cap; default [50] *)
  warm_start : bool;
      (** seed from the DC operating point (falling back to the zero
          state when the DC solve fails); default [true] *)
  budget : Resilience.Budget.t option;
      (** work/deadline bound threaded into the backend; the DC seed
          is solved outside it. Default unbounded *)
  (* single-time discretization *)
  steps_per_period : int;  (** shooting; default [256] *)
  segments : int;  (** multiple shooting windows; default [8] *)
  steps_per_segment : int;  (** multiple shooting; default [50] *)
  harmonics : int;  (** harmonic balance; default [8] *)
  points : int;  (** periodic-FD collocation points; default [64] *)
  (* MPDE grid *)
  n1 : int;  (** fast-scale grid points; default [32] *)
  n2 : int;  (** slow-scale grid points; default [24] *)
  initial_surface : Linalg.Vec.t option;
      (** full flattened MPDE grid state used as the Newton initial
          guess instead of the replicated DC point (MPDE only) —
          typically a converged surface from a nearby parameter point,
          shared by the solve service's warm-start store. Excluded
          from {!Key}: it changes iteration counts, not the fixed
          point being solved for. Default [None]. *)
}

val default : t

val with_budget : Resilience.Budget.t option -> t -> t

val degrade : t -> t
(** Watchdog demotion: halve every discretization axis (floored at
    [n1 >= 8], [n2 >= 6], [steps_per_period >= 64],
    [steps_per_segment >= 16], [harmonics >= 4], [points >= 16]) and
    loosen [tol] by two decades (capped at [1e-3]). Idempotent at the
    floors. *)

val to_mpde : t -> Mpde.Solver.options
(** Project onto the MPDE backend's native record: a record update of
    {!Mpde.Solver.default_options}, so the scheme is [Backward], the
    linear solver [Gmres_sweep], and the nonlinear escalation rungs
    (continuation) are enabled. *)
