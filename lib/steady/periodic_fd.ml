module Vec = Linalg.Vec

let solve ?(max_newton = 60) ?(tol = 1e-8) ?budget ?x_init ~(dae : Numeric.Dae.t)
    ~period ~points () =
  if points < 2 then invalid_arg "Periodic_fd.solve: need at least 2 points";
  Telemetry.span "periodic-fd.solve" @@ fun () ->
  let n = dae.Numeric.Dae.size in
  let big = points * n in
  let h = period /. float_of_int points in
  let times = Array.init points (fun k -> float_of_int k *. h) in
  let sources = Array.map dae.Numeric.Dae.source times in
  let state_of big_x k = Array.sub big_x (k * n) n in
  let residual big_x =
    let r = Array.make big 0.0 in
    let qs = Array.init points (fun k -> dae.Numeric.Dae.eval_q (state_of big_x k)) in
    for k = 0 to points - 1 do
      let xk = state_of big_x k in
      let f = dae.Numeric.Dae.eval_f xk in
      let q_prev = qs.((k + points - 1) mod points) in
      let b = sources.(k) in
      for i = 0 to n - 1 do
        r.((k * n) + i) <- ((qs.(k).(i) -. q_prev.(i)) /. h) +. f.(i) -. b.(i)
      done
    done;
    r
  in
  let solve_linearized big_x r =
    let coo = Sparse.Coo.create ~capacity:(8 * big) big big in
    let jacs = Array.init points (fun k -> dae.Numeric.Dae.jacobians (state_of big_x k)) in
    for k = 0 to points - 1 do
      let g, c = jacs.(k) in
      let km1 = (k + points - 1) mod points in
      let _, c_prev = jacs.(km1) in
      for i = 0 to n - 1 do
        Sparse.Csr.iter_row c i (fun j v -> Sparse.Coo.add coo ((k * n) + i) ((k * n) + j) (v /. h));
        Sparse.Csr.iter_row g i (fun j v -> Sparse.Coo.add coo ((k * n) + i) ((k * n) + j) v);
        Sparse.Csr.iter_row c_prev i (fun j v ->
            Sparse.Coo.add coo ((k * n) + i) ((km1 * n) + j) (-.v /. h))
      done
    done;
    Sparse.Splu.solve (Sparse.Splu.factor (Sparse.Csr.of_coo coo)) r
  in
  let x0 =
    let seed = match x_init with Some x -> x | None -> Array.make n 0.0 in
    let big_x = Array.make big 0.0 in
    for k = 0 to points - 1 do
      Array.blit seed 0 big_x (k * n) n
    done;
    big_x
  in
  let options =
    { Numeric.Newton.default_options with max_iterations = max_newton; abs_tol = tol; budget }
  in
  let big_x, stats =
    Numeric.Newton.solve ~options { Numeric.Newton.residual; solve_linearized } x0
  in
  {
    Solution.trace = { Numeric.Integrator.times; states = Array.init points (state_of big_x) };
    newton_iterations = stats.Numeric.Newton.iterations;
    converged = Numeric.Newton.converged stats;
    residual_norm = stats.Numeric.Newton.residual_norm;
    outcome = Numeric.Newton.report_outcome stats;
    residual_history = stats.Numeric.Newton.residual_history;
  }
