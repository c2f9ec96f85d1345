type t = {
  convergence : Convergence.cls;
  newton_iterations : int;
  linear_iterations : int;
  residual_norm : float;
  strategy : string;
  converged : bool;
  condition_estimate : float option;
  diagonal_residual : float option;
  stage_iterations : (string * int) list;
}

let condition_of_solution (sol : Mpde.Solver.solution) =
  try
    let sys = sol.Mpde.Solver.system in
    let jacs =
      Mpde.Assemble.point_jacobians sys sol.Mpde.Solver.grid
        sol.Mpde.Solver.big_x
    in
    let j =
      Mpde.Assemble.jacobian_csr sol.Mpde.Solver.scheme sol.Mpde.Solver.grid
        ~size:sys.Mpde.Assemble.size ~jacs
    in
    let lu = Sparse.Splu.factor j in
    let kappa = Condest.condest_csr j lu in
    if Float.is_finite kappa && kappa > 0.0 then Some kappa else None
  with _ -> None

let of_report (r : Resilience.Report.t) =
  let strategy =
    match r.Resilience.Report.strategy with Some s -> s | None -> "none"
  in
  {
    convergence =
      Convergence.classify ~strategy r.Resilience.Report.residual_trajectory;
    newton_iterations = r.Resilience.Report.newton_iterations;
    linear_iterations = r.Resilience.Report.linear_iterations;
    residual_norm = r.Resilience.Report.residual_norm;
    strategy;
    converged =
      (match r.Resilience.Report.outcome with
      | Resilience.Report.Converged -> true
      | Resilience.Report.Failed _ | Resilience.Report.Exhausted _ -> false);
    condition_estimate = None;
    diagonal_residual = None;
    stage_iterations =
      List.map
        (fun s -> (s.Resilience.Report.name, s.Resilience.Report.iterations))
        r.Resilience.Report.stages;
  }

let probe (sol : Mpde.Solver.solution) ~unknown h =
  Telemetry.span "diagnostics.health" @@ fun () ->
  let condition_estimate =
    Telemetry.span "diagnostics.condest" @@ fun () -> condition_of_solution sol
  in
  let diagonal_residual =
    Telemetry.span "diagnostics.diagonal" @@ fun () ->
    Some (Mpde.Extract.diagonal_residual sol ~unknown)
  in
  { h with condition_estimate; diagonal_residual }

let summary_line h =
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    (Printf.sprintf "health: %s | newton=%d | residual=%.1e"
       (Convergence.to_string h.convergence)
       h.newton_iterations h.residual_norm);
  (match h.condition_estimate with
  | Some k -> Buffer.add_string buf (Printf.sprintf " | kappa~%.1e" k)
  | None -> ());
  (match h.diagonal_residual with
  | Some d -> Buffer.add_string buf (Printf.sprintf " | diag=%.1e" d)
  | None -> ());
  if not h.converged then Buffer.add_string buf " | NOT CONVERGED";
  Buffer.contents buf

let to_json h =
  let module J = Telemetry.Json in
  let opt = function
    | Some v -> J.Num v
    | None -> J.Null
  in
  J.to_string
    (J.Obj
       [
         ("convergence", J.Str (Convergence.to_string h.convergence));
         ("converged", J.Bool h.converged);
         ("newton_iterations", J.Num (float_of_int h.newton_iterations));
         ("linear_iterations", J.Num (float_of_int h.linear_iterations));
         ("residual_norm", J.Num h.residual_norm);
         ("strategy", J.Str h.strategy);
         ("condition_estimate", opt h.condition_estimate);
         ("diagonal_residual", opt h.diagonal_residual);
         ( "stage_iterations",
           J.Obj
             (List.map
                (fun (name, it) -> (name, J.Num (float_of_int it)))
                h.stage_iterations) );
       ])

let attach h report = Resilience.Report.add_section report "diagnostics" (to_json h)

let to_registry ?registry h =
  let r = match registry with Some r -> r | None -> Registry.create () in
  Registry.gauge ~help:"Newton iterations of the assessed solve" r
    "health.newton_iterations"
    (float_of_int h.newton_iterations);
  Registry.gauge ~help:"GMRES inner iterations of the assessed solve" r
    "health.linear_iterations"
    (float_of_int h.linear_iterations);
  Registry.gauge ~help:"final residual infinity norm" r "health.residual_norm"
    h.residual_norm;
  Registry.gauge ~help:"1 when the solve converged" r "health.converged"
    (if h.converged then 1.0 else 0.0);
  Registry.gauge
    ~help:"marker gauge; the class label carries the assessment"
    ~labels:[ ("class", Convergence.to_string h.convergence) ]
    r "health.convergence" 1.0;
  (match h.condition_estimate with
  | Some k ->
      Registry.gauge ~help:"Jacobian condition estimate (power iteration)" r
        "health.condition_estimate" k
  | None -> ());
  (match h.diagonal_residual with
  | Some d ->
      Registry.gauge ~help:"relative diagonal-consistency residual" r
        "health.diagonal_residual" d
  | None -> ());
  List.iter
    (fun (stage, it) ->
      Registry.gauge
        ~labels:[ ("stage", stage) ]
        r "health.stage_iterations" (float_of_int it))
    h.stage_iterations;
  r
