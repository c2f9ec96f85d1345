module Report = Resilience.Report

type t = {
  trace : Numeric.Integrator.trace;
  newton_iterations : int;
  converged : bool;
  residual_norm : float;
  outcome : Report.outcome;
  residual_history : float array;
}

let to_report ~stage ?(wall_seconds = 0.0) r =
  let status =
    match r.outcome with
    | Report.Converged -> `Success
    | Report.Failed m -> `Failed m
    | Report.Exhausted e -> `Failed (Resilience.Budget.exhaustion_to_string e)
  in
  {
    Report.outcome = r.outcome;
    strategy = Some "newton";
    stages =
      [ { Report.name = stage; status; iterations = r.newton_iterations; wall_seconds } ];
    residual_trajectory = r.residual_history;
    residual_norm = r.residual_norm;
    newton_iterations = r.newton_iterations;
    linear_iterations = 0;
    wall_seconds;
    telemetry = None;
    sections = [];
  }
