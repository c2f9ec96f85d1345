(** Solver-health assessment of an MPDE solution.

    Folds the observable evidence of one solve — the Newton residual
    trajectory, the winning ladder strategy, a condition estimate of the
    final Jacobian, and the diagonal-consistency residual — into one
    record that the CLI ([rfss health]), the quickstart example, and the
    metrics exposition all share. *)

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

val of_solution :
  ?condition:bool ->
  ?diagonal_unknown:int ->
  Mpde.Solver.solution ->
  t
(** Assess a solution. The condition estimate re-assembles the Jacobian
    under the solution's own scheme. [condition] (default [true])
    controls the κ estimate; [diagonal_unknown], when
    given, enables the diagonal-consistency check on that unknown. *)

val of_report : Resilience.Report.t -> t
(** Engine-agnostic assessment built from a structured solve report
    alone — the path the unified engine API uses for the single-time
    backends (shooting, multiple shooting, HB, periodic FD), whose
    results carry no MPDE solution to probe. Convergence is classified
    from the report's residual trajectory; [condition_estimate] and
    [diagonal_residual] are [None] (both need the MPDE Jacobian and
    grid — use {!of_solution} for those). *)

val summary_line : t -> string
(** One-line rendering for CLI output, e.g.
    ["health: quadratic | newton=9 | residual=3.1e-10 | kappa~2.4e+03 | diag=1.2e-02"]. *)

val to_json : t -> string
(** JSON object; embeddable as a {!Resilience.Report} section. *)

val attach : t -> Resilience.Report.t -> Resilience.Report.t
(** Append this assessment as the report's ["diagnostics"] section. *)

val to_registry : ?registry:Registry.t -> t -> Registry.t
(** Export as metrics: [health.newton_iterations],
    [health.residual_norm], [health.condition_estimate],
    [health.diagonal_residual] gauges and a
    [health.convergence{class="…"}] marker gauge. *)
