(* End-to-end integration tests across subsystems: the MPDE solution
   must agree with brute-force one-time simulation wherever the latter
   is affordable, and the full paper pipeline must run. *)

module W = Circuit.Waveform

let pi = 4.0 *. atan 1.0

(* MPDE vs brute-force transient on the nonlinear envelope detector at
   a small disparity (where transient is affordable). The transient is
   run for several beat periods to let start-up decay, then compared
   against the MPDE diagonal over the last beat period. *)
let test_mpde_vs_transient_nonlinear () =
  let f1 = 1e5 and fd = 1e4 in
  let f2 = f1 +. fd in
  let { Circuits.mna; _ } = Circuits.envelope_detector ~f1 ~f2 ~amplitude:1.0 () in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:64 ~n2:32 mna in
  Alcotest.(check bool) "mpde converged" true sol.Mpde.Solver.stats.converged;
  let out = Circuit.Mna.node_index mna "out" in
  (* 6 beat periods of transient, 100 steps per carrier period. *)
  let t2p = 1.0 /. fd in
  let total = 6.0 *. t2p in
  let steps = int_of_float (total *. f1 *. 100.0) in
  let tr = Circuit.Transient.run ~mna ~t_stop:total ~steps () in
  let trace = tr.Circuit.Transient.trace in
  let vout_surface = Mpde.Extract.surface_of_node sol mna "out" in
  (* Compare the low-pass output over the final beat period. *)
  let n_states = Array.length trace.Numeric.Integrator.states in
  let worst = ref 0.0 and scale = ref 0.0 in
  for k = n_states - 1 downto n_states - (steps / 6) do
    let t = trace.Numeric.Integrator.times.(k) in
    let transient_v = trace.Numeric.Integrator.states.(k).(out) in
    let mpde_v =
      Numeric.Interp.bilinear_periodic vout_surface (t *. f1) (t *. fd)
    in
    worst := Float.max !worst (Float.abs (transient_v -. mpde_v));
    scale := Float.max !scale (Float.abs transient_v)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "agree within 10%% of swing (err %.4f, scale %.4f)" !worst !scale)
    true
    (!worst < 0.10 *. !scale)

(* Same cross-check on a *linear* two-tone circuit where both methods
   should agree tightly (discretization differences only). *)
let test_mpde_vs_transient_linear () =
  let f1 = 1e5 and fd = 2e4 in
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~r:1e3 ~c:1e-9
      ~drive:(W.sum (W.sine ~amplitude:1.0 ~freq:f1 ()) (W.sine ~amplitude:0.5 ~freq:(f1 +. fd) ()))
      ()
  in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:64 ~n2:16 mna in
  let out = Circuit.Mna.node_index mna "out" in
  let surface = Mpde.Extract.surface_of_node sol mna "out" in
  (* Analytic steady state for comparison. *)
  let resp amplitude f t =
    let w = 2.0 *. pi *. f in
    let wrc = w *. 1e3 *. 1e-9 in
    amplitude /. sqrt (1.0 +. (wrc *. wrc)) *. sin ((w *. t) -. atan wrc)
  in
  ignore out;
  let worst = ref 0.0 in
  for k = 0 to 200 do
    let t = float_of_int k *. (1.0 /. fd) /. 200.0 in
    let mpde_v = Numeric.Interp.bilinear_periodic surface (t *. f1) (t *. fd) in
    let exact = resp 1.0 f1 t +. resp 0.5 (f1 +. fd) t in
    worst := Float.max !worst (Float.abs (mpde_v -. exact))
  done;
  Alcotest.(check bool) "linear agreement" true (!worst < 0.08)

(* The paper's headline pipeline: balanced mixer + bit stream, solved
   on the 40x30 grid, with all four figure extractions. *)
let test_paper_pipeline () =
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, bits = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:40 ~n2:30 mna in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
  Alcotest.(check bool) "newton count in paper's ballpark (≤ 26)" true
    (sol.Mpde.Solver.stats.newton_iterations <= 26);
  let nodes = Circuits.balanced_mixer_nodes in
  (* Fig 3: differential output surface exists and is bounded. *)
  let diff =
    Mpde.Extract.differential_surface sol mna nodes.Circuits.out_plus nodes.Circuits.out_minus
  in
  Array.iter
    (Array.iter (fun v ->
         Alcotest.(check bool) "bounded" true (Float.abs v < 3.0)))
    diff;
  (* Fig 4: baseband envelope nulls on the 0 bit of 110111. *)
  let env = Mpde.Extract.envelope sol ~values:diff in
  let n2 = Array.length env in
  let per_bit = n2 / Array.length bits in
  let bit_mean k =
    let s = ref 0.0 in
    for j = k * per_bit to ((k + 1) * per_bit) - 1 do
      s := !s +. Float.abs env.(j)
    done;
    !s /. float_of_int per_bit
  in
  let zero_bit_index =
    let rec find i = if bits.(i) then find (i + 1) else i in
    find 0
  in
  let on_levels =
    Array.to_list (Array.mapi (fun k b -> (k, b)) bits)
    |> List.filter_map (fun (k, b) -> if b then Some (bit_mean k) else None)
  in
  let min_on = List.fold_left Float.min infinity on_levels in
  Alcotest.(check bool) "0-bit suppressed vs 1-bits" true
    (bit_mean zero_bit_index < 0.5 *. min_on);
  (* Fig 5: the tail node carries a strong 2·LO component (doubling). *)
  let vs = Mpde.Extract.surface_of_node sol mna nodes.Circuits.source_node in
  let col = Array.init 40 (fun i -> vs.(i).(0)) in
  let h = Numeric.Fft.real_harmonics col in
  Alcotest.(check bool) "2nd harmonic dominates fundamental at the tail" true
    (fst h.(2) > 2.0 *. fst h.(1));
  (* Fig 6: diagonal reconstruction is smooth and bounded. *)
  let _, series =
    Mpde.Extract.diagonal sol ~values:vs ~t_start:2.223e-6
      ~t_stop:(2.223e-6 +. (5.0 /. f_lo))
      ~samples:100
  in
  Array.iter
    (fun v -> Alcotest.(check bool) "physical" true (v > 0.0 && v < 3.0))
    series

(* Conversion gain via MPDE must match the gain measured by brute-force
   transient demodulation on the unbalanced mixer at modest disparity. *)
let test_conversion_gain_cross_check () =
  let f_lo = 1e6 and fd = 5e4 in
  let rf_amplitude = 0.05 in
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) () in
  let { Circuits.mna; _ } = Circuits.unbalanced_mixer ~f_lo ~rf_signal ~rf_amplitude () in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:48 ~n2:24 mna in
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  let mpde_bb = Mpde.Extract.t2_harmonic_amplitude ~values:vout ~harmonic:1 in
  (* Transient reference: simulate 4 beat periods, FFT the last one. *)
  let steps_per_beat = int_of_float (f_lo /. fd) * 64 in
  let tr = Circuit.Transient.run ~mna ~t_stop:(4.0 /. fd) ~steps:(4 * steps_per_beat) () in
  let out = Circuit.Mna.node_index mna "out" in
  let last_beat =
    Array.init steps_per_beat (fun k ->
        tr.Circuit.Transient.trace.Numeric.Integrator.states.((3 * steps_per_beat) + k).(out))
  in
  let transient_bb = Numeric.Fft.amplitude_at last_beat 1 in
  Alcotest.(check bool)
    (Printf.sprintf "gains agree (mpde %.4f vs transient %.4f)" mpde_bb transient_bb)
    true
    (Float.abs (mpde_bb -. transient_bb) < 0.15 *. transient_bb)

(* The 1-D periodic collocation solver and the MPDE with a trivial slow
   scale must agree: solve a single-tone rectifier both ways. *)
let test_periodic_fd_is_mpde_1d () =
  let f1 = 1e6 in
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier ~load_r:10e3 ~load_c:50e-12
      ~drive:(W.sine ~amplitude:2.0 ~freq:f1 ())
      ()
  in
  let points = 64 in
  let dc = Circuit.Dcop.solve_exn mna in
  let fd_result =
    Steady.Periodic_fd.solve ~x_init:dc ~dae:(Circuit.Mna.dae mna) ~period:(1.0 /. f1)
      ~points ()
  in
  Alcotest.(check bool) "1-D converged" true fd_result.Steady.Solution.converged;
  (* MPDE with the same fast grid; the single-tone source is constant
     along t2, so every t2 column must equal the 1-D solution. *)
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:1e3 in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:points ~n2:4 mna in
  Alcotest.(check bool) "mpde converged" true sol.Mpde.Solver.stats.converged;
  let out = Circuit.Mna.node_index mna "out" in
  let worst = ref 0.0 in
  for i = 0 to points - 1 do
    let v1d = fd_result.Steady.Solution.trace.Numeric.Integrator.states.(i).(out) in
    for j = 0 to 3 do
      let v2d = (Mpde.Solver.state_at sol ~i ~j).(out) in
      worst := Float.max !worst (Float.abs (v1d -. v2d))
    done
  done;
  Alcotest.(check bool) "columns equal the 1-D periodic solution" true (!worst < 1e-6)

(* Shooting vs MPDE on cost scaling: at equal accuracy targets the MPDE
   system is dramatically smaller. This checks the structural claim
   (the paper's "250x larger" argument) rather than wall-clock. *)
let test_problem_size_scaling () =
  let disparity = 30000.0 in
  let n1 = 40 and n2 = 30 in
  let mpde_points = n1 * n2 in
  let shooting_steps = int_of_float (10.0 *. disparity) in
  Alcotest.(check bool) "paper's ≥250x system-size ratio" true
    (float_of_int shooting_steps /. float_of_int mpde_points >= 250.0)

let () =
  Alcotest.run "integration"
    [
      ( "cross-validation",
        [
          Alcotest.test_case "mpde vs transient (nonlinear)" `Slow
            test_mpde_vs_transient_nonlinear;
          Alcotest.test_case "mpde vs analytic (linear)" `Quick test_mpde_vs_transient_linear;
          Alcotest.test_case "conversion gain cross-check" `Slow
            test_conversion_gain_cross_check;
          Alcotest.test_case "periodic-fd = 1-D mpde" `Quick test_periodic_fd_is_mpde_1d;
        ] );
      ( "paper pipeline",
        [
          Alcotest.test_case "balanced mixer figures 3-6" `Slow test_paper_pipeline;
          Alcotest.test_case "system size ratio" `Quick test_problem_size_scaling;
        ] );
    ]
