module Vec = Linalg.Vec
module Mat = Linalg.Mat

let spectral_diff_matrix n period =
  if n mod 2 = 0 then invalid_arg "Hb.spectral_diff_matrix: n must be odd";
  Numeric.Spectral.diff_matrix n period

let solve ?(max_newton = 60) ?(tol = 1e-8) ?budget ?x_init ~(dae : Numeric.Dae.t)
    ~period ~harmonics () =
  if harmonics < 1 then invalid_arg "Hb.solve: need at least 1 harmonic";
  Telemetry.span "hb.solve" @@ fun () ->
  let points = (2 * harmonics) + 1 in
  let n = dae.Numeric.Dae.size in
  let big = points * n in
  let d = spectral_diff_matrix points period in
  let times = Array.init points (fun k -> float_of_int k *. period /. float_of_int points) in
  let sources = Array.map dae.Numeric.Dae.source times in
  let state_of big_x k = Array.sub big_x (k * n) n in
  let residual big_x =
    let qs = Array.init points (fun k -> dae.Numeric.Dae.eval_q (state_of big_x k)) in
    let r = Array.make big 0.0 in
    for k = 0 to points - 1 do
      let f = dae.Numeric.Dae.eval_f (state_of big_x k) in
      for i = 0 to n - 1 do
        let dq = ref 0.0 in
        for l = 0 to points - 1 do
          dq := !dq +. (Mat.get d k l *. qs.(l).(i))
        done;
        r.((k * n) + i) <- !dq +. f.(i) -. sources.(k).(i)
      done
    done;
    r
  in
  let solve_linearized big_x r =
    let coo = Sparse.Coo.create ~capacity:(points * points * n) big big in
    let jacs = Array.init points (fun k -> dae.Numeric.Dae.jacobians (state_of big_x k)) in
    for k = 0 to points - 1 do
      let g, _ = jacs.(k) in
      for i = 0 to n - 1 do
        Sparse.Csr.iter_row g i (fun j v -> Sparse.Coo.add coo ((k * n) + i) ((k * n) + j) v)
      done;
      for l = 0 to points - 1 do
        let dkl = Mat.get d k l in
        if dkl <> 0.0 then begin
          let _, c = jacs.(l) in
          for i = 0 to n - 1 do
            Sparse.Csr.iter_row c i (fun j v ->
                Sparse.Coo.add coo ((k * n) + i) ((l * n) + j) (dkl *. v))
          done
        end
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

let harmonic_amplitude (result : Solution.t) ~unknown ~harmonic =
  let samples = Array.map (fun x -> x.(unknown)) result.trace.Numeric.Integrator.states in
  Numeric.Fft.amplitude_at samples harmonic
