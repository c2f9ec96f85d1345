module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Budget = Resilience.Budget
module Report = Resilience.Report

let copy_values (m : Sparse.Csr.t) =
  { m with Sparse.Csr.values = Array.copy m.Sparse.Csr.values }

(* Integrate one period with backward Euler while propagating the
   sensitivity S = ∂x(t)/∂x(0). The BE step residual
   [q(x⁺) − q(x)]/h + f(x⁺) − b = 0 gives S⁺ = J⁻¹ (C/h) S with
   J = C⁺/h + G⁺ evaluated at the accepted state. That J(x⁺) is also
   the matrix the next step's first Newton iteration needs at its
   [x_prev], so the workspace factors it once for both, and C⁺ is kept
   as the next step's [c_prev]. *)
let integrate_with_sensitivity ?newton_options ~workspace ~x0 ~t0 ~duration ~steps () =
  Telemetry.span "shooting.integrate" @@ fun () ->
  let module I = Numeric.Integrator in
  let n = Array.length x0 in
  let h = duration /. float_of_int steps in
  let linearize x =
    try I.linearize workspace ~method_:I.Backward_euler ~h x
    with Sparse.Splu.Singular k ->
      failwith (Printf.sprintf "Shooting: singular step Jacobian (column %d)" k)
  in
  (* S by columns, double-buffered. *)
  let s = ref (Array.init n (fun j -> Array.init n (fun i -> if i = j then 1.0 else 0.0))) in
  let s_next = ref (Array.init n (fun _ -> Array.make n 0.0)) in
  let inv_h = 1.0 /. h in
  linearize x0;
  (* C(x_prev) keeps its own values: the workspace refreshes C in place. *)
  let c_prev = ref (copy_values (I.charge_jacobian workspace)) in
  let keep_charge () =
    let c = I.charge_jacobian workspace in
    if c.Sparse.Csr.col_idx == !c_prev.Sparse.Csr.col_idx then
      Array.blit c.Sparse.Csr.values 0 !c_prev.Sparse.Csr.values 0 (Sparse.Csr.nnz c)
    else c_prev := copy_values c
  in
  let times = Array.make (steps + 1) t0 in
  let states = Array.make (steps + 1) x0 in
  for k = 1 to steps do
    let x_prev = states.(k - 1) in
    let t_next = t0 +. (float_of_int k *. h) in
    let step =
      I.implicit_step ?newton_options ~method_:I.Backward_euler ~workspace ~t_next ~h
        ~x_prev ()
    in
    if not step.I.converged then begin
      match step.I.outcome with
      | Numeric.Newton.Exhausted e -> raise (Budget.Exhausted e)
      | _ -> failwith "Shooting: Newton failed inside period integration"
    end;
    let x_next = step.I.x in
    linearize x_next;
    let s_cur = !s and s_new = !s_next in
    (* S⁺(:,j) = J⁻¹ (C_prev/h) S(:,j): each right side formed in one
       pass over C_prev's rows (the row sum, then the 1/h scale), then
       all columns solved in place. *)
    let { Sparse.Csr.row_ptr; col_idx; values; _ } = !c_prev in
    for j = 0 to n - 1 do
      let sj = s_cur.(j) and rhs = s_new.(j) in
      for i = 0 to n - 1 do
        let acc = ref 0.0 in
        for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          acc := !acc +. (values.(p) *. sj.(col_idx.(p)))
        done;
        rhs.(i) <- inv_h *. !acc
      done
    done;
    I.solve_columns workspace s_new;
    s := s_new;
    s_next := s_cur;
    keep_charge ();
    times.(k) <- t_next;
    states.(k) <- x_next
  done;
  let s = !s in
  ({ I.times; states }, Mat.init n n (fun i j -> s.(j).(i)))

(* The outer Newton loop of both shooting backends. Each iteration
   ticks the budget, integrates from the current unknowns, measures the
   defect and applies the Newton update; every exit is classified in
   the outcome. *)
let outer_newton ~name ~diverged ~max_newton ~tol ?budget ~integrate ~defect ~update
    ~apply ~trace () =
  let observation = name ^ ".residual" in
  let iterations = ref 0 in
  let converged = ref false in
  let residual = ref infinity in
  let history = ref [] in
  let last = ref None in
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
       let w =
         try integrate () with
         | Budget.Exhausted e -> fail (Report.Exhausted e)
         | Failure msg -> fail (Report.Failed msg)
       in
       last := Some w;
       let d, norm = defect w in
       residual := norm;
       history := norm :: !history;
       Telemetry.observe observation norm;
       if not (Float.is_finite norm) then fail (Report.Failed diverged);
       if norm <= tol then converged := true
       else begin
         let delta = try update w d with Failure msg -> fail (Report.Failed msg) in
         if not (Resilience.Guard.finite delta) then
           fail (Report.Failed ("non-finite " ^ name ^ " update"));
         apply delta;
         incr iterations
       end
     done;
     if not !converged then outcome := Report.Failed "max shooting iterations"
   with Exit -> ());
  (* Final integration consistent with the solution (best effort when
     the solve ended on a failure or budget exhaustion). *)
  let final =
    if !converged then !last
    else try Some (integrate ()) with Budget.Exhausted _ | Failure _ -> !last
  in
  {
    Solution.trace = trace final;
    newton_iterations = !iterations;
    converged = !converged;
    residual_norm = !residual;
    outcome = !outcome;
    residual_history = Array.of_list (List.rev !history);
  }

let solve ?(max_newton = 25) ?(tol = 1e-8) ?(steps_per_period = 200) ?budget ?x0 ~dae
    ~period () =
  if steps_per_period < 1 then
    invalid_arg "Shooting.solve: steps_per_period must be positive";
  Telemetry.span "shooting.solve" @@ fun () ->
  let n = dae.Numeric.Dae.size in
  let x0 = match x0 with Some x -> Array.copy x | None -> Array.make n 0.0 in
  let workspace = Numeric.Integrator.workspace dae in
  let newton_options =
    match budget with
    | None -> None
    | Some b -> Some { Numeric.Newton.default_options with budget = Some b }
  in
  outer_newton ~name:"shooting" ~diverged:"periodicity residual diverged (non-finite)"
    ~max_newton ~tol ?budget
    ~integrate:(fun () ->
      integrate_with_sensitivity ?newton_options ~workspace ~x0 ~t0:0.0 ~duration:period
        ~steps:steps_per_period ())
    ~defect:(fun (trace, _) ->
      let r = Vec.sub trace.Numeric.Integrator.states.(steps_per_period) x0 in
      (r, Vec.norm_inf r))
    ~update:(fun (_, monodromy) r ->
      (* Solve (M − I) δ = −r; the update is x0 ← x0 + δ. *)
      Telemetry.span "shooting.newton_update" @@ fun () ->
      try Linalg.Lu.solve_dense (Mat.sub monodromy (Mat.identity n)) (Vec.neg r)
      with e -> failwith ("monodromy solve failed: " ^ Printexc.to_string e))
    ~apply:(Linalg.Kernel.add_ip x0)
    ~trace:(function
      | Some (trace, _) -> trace
      | None -> { Numeric.Integrator.times = [| 0.0 |]; states = [| x0 |] })
    ()
