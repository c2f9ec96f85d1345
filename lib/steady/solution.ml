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

let collocate ?(max_newton = 60) ?(tol = 1e-8) ?budget ?x_init ~(dae : Numeric.Dae.t) ~times
    operator =
  let n = dae.Numeric.Dae.size in
  let points = Array.length times in
  let problem = Numeric.Collocation.problem dae operator ~times in
  let x0 =
    Numeric.Collocation.replicate points
      (match x_init with Some x -> x | None -> Array.make n 0.0)
  in
  let options =
    { Numeric.Newton.default_options with max_iterations = max_newton; abs_tol = tol; budget }
  in
  let big_x, stats = Numeric.Newton.solve ~options problem x0 in
  {
    trace = { Numeric.Integrator.times; states = Numeric.Collocation.states n big_x };
    newton_iterations = stats.Numeric.Newton.iterations;
    converged = Numeric.Newton.converged stats;
    residual_norm = stats.Numeric.Newton.residual_norm;
    outcome = Numeric.Newton.report_outcome stats;
    residual_history = stats.Numeric.Newton.residual_history;
  }
