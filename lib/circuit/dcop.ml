module Newton = Numeric.Newton
module Budget = Resilience.Budget
module Ladder = Resilience.Ladder
module Report = Resilience.Report

type report = {
  x : Linalg.Vec.t;
  converged : bool;
  strategy : [ `Newton | `Gmin_stepping | `Source_stepping ];
  newton_iterations : int;
  resilience : Report.t;
}

(* DC problem at source scaling [source_scale] with extra gmin loading
   [extra_gmin] on the node rows. The residual loads f and G at its
   iterate in one device pass, and the solve at that iterate (Newton's
   next call) factors that G ([Numeric.Stacked], one point). *)
let dc_problem mna ~source_scale ~extra_gmin =
  let nodes = Mna.num_nodes mna in
  let n = Mna.size mna in
  let b0 = Array.make n 0.0 in
  let freqs = Array.of_list (Mna.source_frequencies mna) in
  Mna.sources_into mna ~freqs ~phases:(Array.make (Array.length freqs) 0.0) b0 0;
  let point = Numeric.Stacked.create (Mna.dae mna) ~points:1 in
  let residual_into x r =
    Numeric.Stacked.load point x;
    let f = (Numeric.Stacked.forces point).(0) in
    for i = 0 to n - 1 do
      let load = if i < nodes then extra_gmin *. x.(i) else 0.0 in
      r.(i) <- f.(i) +. load -. (source_scale *. b0.(i))
    done
  in
  let solve_into x r delta =
    let g, _ = (Numeric.Stacked.jacobians point x).(0) in
    let coo = Sparse.Coo.create ~capacity:(Sparse.Csr.nnz g + n) n n in
    for i = 0 to n - 1 do
      Sparse.Csr.iter_row g i (fun j v -> Sparse.Coo.add coo i j v);
      if i < nodes then Sparse.Coo.add coo i i extra_gmin
    done;
    Sparse.Splu.solve_into (Sparse.Splu.factor (Sparse.Csr.of_coo coo)) r delta
  in
  { Newton.residual_into; solve_into }

(* The classic SPICE convergence ladder — plain Newton, then gmin
   stepping, then source stepping — expressed as Resilience.Ladder
   stages so it shares machinery (budgets, structured reports, skip
   logic) with the MPDE/steady engines. *)
let solve ?(newton_options = Newton.default_options) ?budget ?x0 mna =
  let t_start = Telemetry.Clock.wall () in
  let tele_mark = Telemetry.mark () in
  let x0 = match x0 with Some x -> x | None -> Array.make (Mna.size mna) 0.0 in
  let newton_options =
    match (newton_options.Newton.budget, budget) with
    | None, Some _ -> { newton_options with Newton.budget }
    | _ -> newton_options
  in
  let total_iters = ref 0 in
  let trajectory = ref [] in
  let stage_iters = ref [] in
  let last_x = ref x0 in
  let last_rnorm = ref infinity in
  let on_iteration _ _ rnorm = trajectory := rnorm :: !trajectory in
  let record_stage name before = stage_iters := (name, !total_iters - before) :: !stage_iters in
  let attempt ~source_scale ~extra_gmin guess =
    let x, stats =
      Newton.solve ~options:newton_options ~on_iteration
        (dc_problem mna ~source_scale ~extra_gmin)
        guess
    in
    total_iters := !total_iters + stats.Newton.iterations;
    last_x := x;
    last_rnorm := stats.Newton.residual_norm;
    (match stats.Newton.outcome with
    | Newton.Exhausted e -> raise (Budget.Exhausted e)
    | _ -> ());
    if Newton.converged stats then Some x else None
  in
  let stage name applies body =
    {
      Ladder.name;
      applies;
      attempt =
        (fun () ->
          let before = !total_iters in
          let r = Fun.protect ~finally:(fun () -> record_stage name before) body in
          match r with
          | Some x -> Ok x
          | None -> Error (Ladder.Nonlinear, name ^ " did not converge"));
    }
  in
  let stages =
    [
      stage "newton" Ladder.always (fun () ->
          attempt ~source_scale:1.0 ~extra_gmin:0.0 x0);
      stage "gmin-stepping" Ladder.on_nonlinear (fun () ->
          (* Decade ladder from strong loading down to none. *)
          let rec gmin_ladder gmin guess =
            if gmin < 1e-13 then attempt ~source_scale:1.0 ~extra_gmin:0.0 guess
            else
              match attempt ~source_scale:1.0 ~extra_gmin:gmin guess with
              | Some x -> gmin_ladder (gmin /. 10.0) x
              | None -> None
          in
          gmin_ladder 1e-2 x0);
      stage "source-stepping" Ladder.on_nonlinear (fun () ->
          let problem_at lambda = dc_problem mna ~source_scale:lambda ~extra_gmin:0.0 in
          let x, stats =
            Numeric.Continuation.trace ~newton_options ?budget ~problem_at ~x0 ()
          in
          total_iters := !total_iters + stats.Numeric.Continuation.newton_iterations;
          last_x := x;
          if stats.Numeric.Continuation.converged then Some x else None);
    ]
  in
  let run = Telemetry.span "dcop.solve" (fun () -> Ladder.run ?budget stages) in
  let strategy =
    match run.Ladder.strategy with
    | Some "newton" -> `Newton
    | Some "gmin-stepping" -> `Gmin_stepping
    | _ -> `Source_stepping
  in
  let x = match run.Ladder.value with Some x -> x | None -> !last_x in
  let iterations_of name =
    match List.assoc_opt name !stage_iters with Some n -> n | None -> 0
  in
  let telemetry =
    Option.map Telemetry.Summary.of_snapshot (Telemetry.snapshot ~since:tele_mark ())
  in
  let resilience =
    Report.of_ladder ~iterations_of ?telemetry
      ~residual_trajectory:(Array.of_list (List.rev !trajectory))
      ~residual_norm:!last_rnorm ~newton_iterations:!total_iters ~linear_iterations:0
      ~wall_seconds:(Telemetry.Clock.wall () -. t_start)
      run
  in
  {
    x;
    converged = run.Ladder.value <> None;
    strategy;
    newton_iterations = !total_iters;
    resilience;
  }

let solve_exn ?newton_options ?budget ?x0 mna =
  let r = solve ?newton_options ?budget ?x0 mna in
  if r.converged then r.x else failwith "Dcop.solve_exn: no DC operating point found"
