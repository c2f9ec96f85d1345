(** Solver-health assessment of a steady-state solve.

    Folds the observable evidence of one solve — the Newton residual
    trajectory, the winning ladder strategy, and, for an MPDE solution,
    a condition estimate of the final Jacobian and the
    diagonal-consistency residual — into one record that the unified
    engine result, the CLI ([rfss solve], [rfss health]), the
    quickstart example, and the metrics exposition all share.

    {!of_report} is the one constructor, used by all five backends.
    {!probe} adds the two MPDE-only checks. The engine never runs them,
    because every sweep row and served result would pay for them: κ
    costs up to 15× an MPDE solve, and the diagonal check up to a
    third of one. [rfss health] runs them on the engine's result. *)

type t = {
  convergence : Convergence.cls;
  newton_iterations : int;
  linear_iterations : int;
  residual_norm : float;
  strategy : string;  (** winning ladder stage, or ["none"] *)
  converged : bool;
  condition_estimate : float option;
      (** κ estimate of the final MPDE Jacobian; [None] when skipped or
          when the factorization failed *)
  diagonal_residual : float option;
      (** relative diagonal-consistency residual; [None] when skipped,
          [Some nan] when the reference transient failed *)
  stage_iterations : (string * int) list;
      (** Newton iterations per ladder stage, from the report *)
}

val of_report : Resilience.Report.t -> t
(** Assessment built from a structured solve report alone, for every
    backend. Convergence is classified from the report's residual
    trajectory and strategy; a report with no strategy (no ladder stage
    produced the value) reads ["none"], as {!Mpde.Solver.stats} does.
    [condition_estimate] and [diagonal_residual] are [None]; {!probe}
    fills them in. *)

val probe : Mpde.Solver.solution -> unknown:int -> t -> t
(** [probe sol ~unknown h] is [h] with the κ estimate of [sol]'s final
    Jacobian (re-assembled under the solution's own scheme, a sparse LU
    and a power iteration) and the diagonal-consistency residual of
    [unknown] ({!Mpde.Extract.diagonal_residual}, a reference one-time
    transient) filled in, under the [diagnostics.condest] and
    [diagnostics.diagonal] spans. *)

val summary_line : t -> string
(** One-line rendering for CLI output, e.g.
    ["health: quadratic | newton=9 | residual=3.1e-10 | kappa~2.4e+03 | diag=1.2e-02"]. *)

val attach : t -> Resilience.Report.t -> Resilience.Report.t
(** Append this assessment as the report's ["diagnostics"] section. *)

val to_registry : ?registry:Registry.t -> t -> Registry.t
(** Export as metrics: [health.newton_iterations],
    [health.residual_norm], [health.condition_estimate],
    [health.diagonal_residual] gauges and a
    [health.convergence{class="…"}] marker gauge. *)
