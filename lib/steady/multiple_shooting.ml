module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Budget = Resilience.Budget
module Report = Resilience.Report

type result = {
  segment_starts : Vec.t array;
  trace : Numeric.Integrator.trace;
  newton_iterations : int;
  converged : bool;
  residual_norm : float;
  outcome : Report.outcome;
  residual_history : float array;
}

(* Unknowns: the S window-start states stacked. Matching conditions:
   Φ_s(x_s) − x_{s+1 mod S} = 0, giving a block-cyclic Jacobian with
   window monodromies M_s on the diagonal band and −I on the
   super-diagonal (wrapping). Solved directly with the sparse LU —
   S·n stays small. *)
let solve ?(max_newton = 25) ?(tol = 1e-8) ?(steps_per_segment = 50) ?budget ?x0
    ~(dae : Numeric.Dae.t) ~period ~segments () =
  if segments < 1 then invalid_arg "Multiple_shooting.solve: segments must be positive";
  Telemetry.span "multiple-shooting.solve" @@ fun () ->
  let n = dae.Numeric.Dae.size in
  let seed = match x0 with Some x -> x | None -> Array.make n 0.0 in
  let starts = Array.init segments (fun _ -> Array.copy seed) in
  let window = period /. float_of_int segments in
  let newton_options =
    match budget with
    | None -> None
    | Some b -> Some { Numeric.Newton.default_options with budget = Some b }
  in
  let workspace = Numeric.Integrator.workspace dae in
  let integrate_all starts =
    Array.mapi
      (fun s x0 ->
        Shooting.integrate_with_sensitivity ?newton_options ~workspace ~x0
          ~t0:(float_of_int s *. window)
          ~duration:window ~steps:steps_per_segment ())
      starts
  in
  let iterations = ref 0 in
  let converged = ref false in
  let residual = ref infinity in
  let history = ref [] in
  let last_traces = ref [||] in
  let outcome = ref Report.Converged in
  let fail o =
    outcome := o;
    raise Exit
  in
  (try
     while (not !converged) && !iterations < max_newton do
       (match budget with
       | Some b -> (
           try Budget.tick_newton b with Budget.Exhausted e -> fail (Report.Exhausted e))
       | None -> ());
       (* Integrate every window from its current start. *)
       let results =
         try integrate_all starts with
         | Budget.Exhausted e -> fail (Report.Exhausted e)
         | Failure msg -> fail (Report.Failed msg)
       in
       last_traces := results;
       (* Matching defects. *)
       let defects =
         Array.init segments (fun s ->
             let trace, _ = results.(s) in
             let endpoint = trace.Numeric.Integrator.states.(steps_per_segment) in
             Vec.sub endpoint starts.((s + 1) mod segments))
       in
       residual :=
         Array.fold_left (fun acc d -> Float.max acc (Vec.norm_inf d)) 0.0 defects;
       history := !residual :: !history;
       Telemetry.observe "multiple-shooting.residual" !residual;
       if not (Float.is_finite !residual) then
         fail (Report.Failed "matching defects diverged (non-finite)");
       if !residual <= tol then converged := true
       else begin
         let big = segments * n in
         let coo = Sparse.Coo.create ~capacity:(segments * n * (n + 1)) big big in
         let rhs = Array.make big 0.0 in
         Array.iteri
           (fun s (_, monodromy) ->
             let next = (s + 1) mod segments in
             for i = 0 to n - 1 do
               rhs.((s * n) + i) <- -.defects.(s).(i);
               Sparse.Coo.add coo ((s * n) + i) ((next * n) + i) (-1.0);
               for j = 0 to n - 1 do
                 Sparse.Coo.add coo ((s * n) + i) ((s * n) + j) (Mat.get monodromy i j)
               done
             done)
           results;
         let delta =
           try Sparse.Splu.solve (Sparse.Splu.factor (Sparse.Csr.of_coo coo)) rhs
           with e ->
             fail (Report.Failed ("cyclic Jacobian solve failed: " ^ Printexc.to_string e))
         in
         if not (Resilience.Guard.finite delta) then
           fail (Report.Failed "non-finite multiple-shooting update");
         Array.iteri
           (fun s x ->
             for i = 0 to n - 1 do
               x.(i) <- x.(i) +. delta.((s * n) + i)
             done)
           starts;
         incr iterations
       end
     done;
     if not !converged then outcome := Report.Failed "max shooting iterations"
   with Exit -> ());
  (* Stitch the final windows into one period trace (recompute if the
     starts moved after the last integration; keep the previous traces
     when the recomputation itself fails or exhausts the budget). *)
  let results =
    if !converged then !last_traces
    else
      try integrate_all starts
      with Budget.Exhausted _ | Failure _ -> !last_traces
  in
  let trace =
    if Array.length results = 0 then
      { Numeric.Integrator.times = [| 0.0 |]; states = [| starts.(0) |] }
    else begin
      let total = (segments * steps_per_segment) + 1 in
      let times = Array.make total 0.0 and states = Array.make total starts.(0) in
      Array.iteri
        (fun s (trace, _) ->
          for k = 0 to steps_per_segment do
            let idx = (s * steps_per_segment) + k in
            if idx < total then begin
              times.(idx) <- trace.Numeric.Integrator.times.(k);
              states.(idx) <- trace.Numeric.Integrator.states.(k)
            end
          done)
        results;
      { Numeric.Integrator.times; states }
    end
  in
  {
    segment_starts = starts;
    trace;
    newton_iterations = !iterations;
    converged = !converged;
    residual_norm = !residual;
    outcome = !outcome;
    residual_history = Array.of_list (List.rev !history);
  }

let to_report ?(wall_seconds = 0.0) r =
  let status =
    match r.outcome with
    | Report.Converged -> `Success
    | Report.Failed m -> `Failed m
    | Report.Exhausted e -> `Failed (Budget.exhaustion_to_string e)
  in
  {
    Report.outcome = r.outcome;
    strategy = Some "newton";
    stages =
      [
        {
          Report.name = "multiple-shooting";
          status;
          iterations = r.newton_iterations;
          wall_seconds;
        };
      ];
    residual_trajectory = r.residual_history;
    residual_norm = r.residual_norm;
    newton_iterations = r.newton_iterations;
    linear_iterations = 0;
    wall_seconds;
    telemetry = None;
    sections = [];
  }
