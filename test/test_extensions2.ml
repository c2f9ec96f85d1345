(* Tests for the second batch of extensions: multiple shooting, RCM
   reordering, MPDE grid refinement, and the Gilbert-cell BJT mixer. *)

module W = Circuit.Waveform

(* ---------- Multiple shooting ---------- *)

let rc_fixture () =
  Circuits.rc_lowpass ~r:1e3 ~c:0.2e-6 ~drive:(W.sine ~amplitude:1.0 ~freq:1e3 ()) ()

let test_mshoot_matches_single () =
  let { Circuits.mna; _ } = rc_fixture () in
  let dae = Circuit.Mna.dae mna in
  let period = 1e-3 in
  let idx = Circuit.Mna.node_index mna "out" in
  let single = Steady.Shooting.solve ~steps_per_period:256 ~dae ~period () in
  let multi =
    Steady.Multiple_shooting.solve ~steps_per_segment:64 ~dae ~period ~segments:4 ()
  in
  Alcotest.(check bool) "both converge" true
    (single.Steady.Solution.converged && multi.Steady.Solution.converged);
  (* Same BE grid (4 x 64 = 256 steps): waveforms must agree closely. *)
  let worst = ref 0.0 in
  for k = 0 to 256 do
    let a = single.Steady.Solution.trace.Numeric.Integrator.states.(k).(idx) in
    let b = multi.Steady.Solution.trace.Numeric.Integrator.states.(k).(idx) in
    worst := Float.max !worst (Float.abs (a -. b))
  done;
  Alcotest.(check bool) "waveforms agree" true (!worst < 1e-6)

let test_mshoot_matching_defects_closed () =
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier ~drive:(W.sine ~amplitude:2.0 ~freq:1e3 ()) ()
  in
  let dae = Circuit.Mna.dae mna in
  let dc = Circuit.Dcop.solve_exn mna in
  let r =
    Steady.Multiple_shooting.solve ~x0:dc ~steps_per_segment:64 ~dae ~period:1e-3
      ~segments:5 ()
  in
  Alcotest.(check bool) "converged" true r.Steady.Solution.converged;
  Alcotest.(check bool) "defects below tolerance" true
    (r.Steady.Solution.residual_norm < 1e-8)

let test_mshoot_single_segment_is_shooting () =
  let { Circuits.mna; _ } = rc_fixture () in
  let dae = Circuit.Mna.dae mna in
  let r =
    Steady.Multiple_shooting.solve ~steps_per_segment:128 ~dae ~period:1e-3 ~segments:1 ()
  in
  Alcotest.(check bool) "converges with one segment" true
    r.Steady.Solution.converged

let test_mshoot_validation () =
  let { Circuits.mna; _ } = rc_fixture () in
  Alcotest.check_raises "segments"
    (Invalid_argument "Multiple_shooting.solve: segments must be positive") (fun () ->
      ignore
        (Steady.Multiple_shooting.solve ~dae:(Circuit.Mna.dae mna) ~period:1e-3
           ~segments:0 ()))

(* ---------- Mpde.Refine ---------- *)

let two_tone_system () =
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~r:1e3 ~c:100e-12
      ~drive:
        (W.sum (W.sine ~amplitude:1.0 ~freq:1e6 ()) (W.sine ~amplitude:1.0 ~freq:1.001e6 ()))
      ()
  in
  let shear = Mpde.Shear.make ~fast_freq:1e6 ~slow_freq:1e3 in
  (Mpde.Assemble.of_mna ~shear mna, shear, Circuit.Dcop.solve_exn mna)

let test_refine_estimates_decrease () =
  let sys, shear, seed = two_tone_system () in
  let _, e1_coarse, _ = Mpde.Refine.estimate_errors ~seed sys ~shear ~n1:8 ~n2:8 in
  let _, e1_fine, _ = Mpde.Refine.estimate_errors ~seed sys ~shear ~n1:32 ~n2:8 in
  Alcotest.(check bool)
    (Printf.sprintf "finer grid -> smaller t1 estimate (%.4f vs %.4f)" e1_fine e1_coarse)
    true (e1_fine < e1_coarse)

(* ---------- Gilbert mixer ---------- *)

let test_gilbert_dc () =
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:100.01e6 () in
  let { Circuits.mna; _ } =
    Circuits.gilbert_mixer ~f_lo:100e6 ~rf_signal ~rf_amplitude:0.0 ()
  in
  let report = Circuit.Dcop.solve mna in
  Alcotest.(check bool) "dc converges" true report.Circuit.Dcop.converged;
  let x = report.Circuit.Dcop.x in
  let nodes = Circuits.gilbert_mixer_nodes in
  Alcotest.(check (float 1e-5)) "balanced"
    (Circuit.Mna.voltage mna x nodes.Circuits.out_plus)
    (Circuit.Mna.voltage mna x nodes.Circuits.out_minus);
  let ve = Circuit.Mna.voltage mna x nodes.Circuits.source_node in
  Alcotest.(check bool) "tail biased" true (ve > 0.3 && ve < 1.4)

let test_gilbert_mpde_conversion () =
  let f_lo = 100e6 and fd = 10e3 in
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) () in
  let { Circuits.mna; _ } =
    Circuits.gilbert_mixer ~f_lo ~rf_signal ~rf_amplitude:0.02 ()
  in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna in
  Alcotest.(check bool) "mpde converges on BJT circuit" true
    sol.Mpde.Solver.stats.converged;
  let nodes = Circuits.gilbert_mixer_nodes in
  let diff =
    Mpde.Extract.differential_surface sol mna nodes.Circuits.out_plus nodes.Circuits.out_minus
  in
  let baseband = Mpde.Extract.t2_harmonic_amplitude ~values:diff ~harmonic:1 in
  Alcotest.(check bool)
    (Printf.sprintf "down-conversion (baseband %.4f V)" baseband)
    true (baseband > 0.05)

let test_gilbert_balance_rejects_lo_leakage () =
  (* With zero RF the double-balanced output should carry essentially
     no LO tone (matched quad). *)
  let f_lo = 100e6 and fd = 10e3 in
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) () in
  let { Circuits.mna; _ } =
    Circuits.gilbert_mixer ~f_lo ~rf_signal ~rf_amplitude:0.0 ()
  in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:8 mna in
  let nodes = Circuits.gilbert_mixer_nodes in
  let diff =
    Mpde.Extract.differential_surface sol mna nodes.Circuits.out_plus nodes.Circuits.out_minus
  in
  (* fast-scale column: LO leakage = fundamental amplitude *)
  let col = Array.init 32 (fun i -> diff.(i).(0)) in
  Alcotest.(check bool) "LO leakage suppressed" true
    (Numeric.Fft.amplitude_at col 1 < 1e-3)

(* ---------- bi-spectral scheme (two-tone harmonic balance) ---------- *)

let bispectral_fixture () =
  let f1 = 1e6 and fd = 1e3 in
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~r:1e3 ~c:100e-12
      ~drive:
        (W.sum (W.sine ~amplitude:1.0 ~freq:f1 ()) (W.sine ~amplitude:1.0 ~freq:(f1 +. fd) ()))
      ()
  in
  (mna, Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd, f1, fd)

let test_bispectral_exact_on_linear () =
  (* The solution of a linear circuit under two tones is band-limited,
     so the bi-spectral MPDE (= two-tone HB) must reproduce it to
     machine-ish precision even on a tiny 9x5 grid. *)
  let mna, shear, f1, fd = bispectral_fixture () in
  let options =
    {
      Mpde.Solver.default_options with
      scheme = Mpde.Assemble.Spectral_both;
      linear_solver = Mpde.Solver.Direct;
    }
  in
  let sol = Mpde.Solver.solve_mna ~options ~shear ~n1:9 ~n2:5 mna in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
  let out = Circuit.Mna.node_index mna "out" in
  let r = 1e3 and c = 100e-12 in
  let worst = ref 0.0 in
  for i = 0 to 8 do
    for j = 0 to 4 do
      let t1 = Mpde.Grid.t1_of sol.Mpde.Solver.grid i in
      let t2 = Mpde.Grid.t2_of sol.Mpde.Solver.grid j in
      let resp f phase =
        let w = 2.0 *. Float.pi *. f in
        let wrc = w *. r *. c in
        1.0 /. sqrt (1.0 +. (wrc *. wrc)) *. sin ((2.0 *. Float.pi *. phase) -. atan wrc)
      in
      let exact =
        resp f1 (f1 *. t1) +. resp (f1 +. fd) ((f1 *. t1) +. (fd *. t2))
      in
      let v = (Mpde.Solver.state_at sol ~i ~j).(out) in
      worst := Float.max !worst (Float.abs (v -. exact))
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "HB-exact on the grid (err %.2e)" !worst)
    true (!worst < 1e-7)

let test_bispectral_requires_odd_dims () =
  let mna, shear, _, _ = bispectral_fixture () in
  let options =
    {
      Mpde.Solver.default_options with
      scheme = Mpde.Assemble.Spectral_both;
      linear_solver = Mpde.Solver.Direct;
      allow_continuation = false;
    }
  in
  match Mpde.Solver.solve_mna ~options ~shear ~n1:8 ~n2:5 mna with
  | exception Invalid_argument _ -> ()
  | sol ->
      Alcotest.(check bool) "must not converge silently" true
        (not sol.Mpde.Solver.stats.converged)

(* ---------- bridge rectifier ---------- *)

let test_bridge_full_wave () =
  (* Single-tone drive: the load sees |v| minus two diode drops. *)
  let drive = W.sine ~amplitude:10.0 ~freq:1e3 () in
  let { Circuits.mna; _ } = Circuits.bridge_rectifier ~load_c:1e-9 ~drive () in
  let r = Circuit.Transient.run ~mna ~t_stop:3e-3 ~steps:3000 () in
  let w = Circuit.Transient.differential_waveform mna r "p" "n" in
  (* After start-up, at both the positive and the negative drive peak
     the load must sit near 10 − 2·0.8 V: full-wave behaviour. *)
  let at t =
    let k = int_of_float (t /. 3e-3 *. 3000.0) in
    w.(k)
  in
  Alcotest.(check bool) "positive peak rectified" true (at 2.25e-3 > 7.5);
  Alcotest.(check bool) "negative peak rectified" true (at 2.75e-3 > 7.5);
  Alcotest.(check bool) "never negative" true (Array.for_all (fun v -> v > -0.1) w)

let test_bridge_beat_via_mpde () =
  let f1 = 50e3 and fd = 1e3 in
  let drive =
    W.sum (W.sine ~amplitude:5.0 ~freq:f1 ()) (W.sine ~amplitude:2.0 ~freq:(f1 +. fd) ())
  in
  let { Circuits.mna; _ } = Circuits.bridge_rectifier ~load_c:1e-7 ~drive () in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
  let load = Mpde.Extract.differential_surface sol mna "p" "n" in
  let beat = Mpde.Extract.t2_harmonic_amplitude ~values:load ~harmonic:1 in
  Alcotest.(check bool) "beat ripple on the dc link" true (beat > 0.3)

(* ---------- quasi-static start ---------- *)

let test_quasi_static_start_close_to_solution () =
  let f1 = 1e6 and fd = 2e4 in
  let { Circuits.mna; _ } = Circuits.envelope_detector ~f1 ~f2:(f1 +. fd) ~amplitude:1.0 () in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let grid = Mpde.Grid.make ~shear ~n1:32 ~n2:16 in
  let dc = Circuit.Dcop.solve_exn mna in
  let qs = Mpde.Solver.quasi_static_start ~seed:dc sys grid in
  Alcotest.(check int) "full-length seed" (32 * 16 * Circuit.Mna.size mna)
    (Array.length qs);
  (* Solving from the quasi-static start must converge and not take
     more iterations than the replicated-DC start. *)
  let from_qs = Mpde.Solver.solve ~seed:qs sys grid in
  let from_dc = Mpde.Solver.solve ~seed:dc sys grid in
  Alcotest.(check bool) "qs converged" true from_qs.Mpde.Solver.stats.converged;
  Alcotest.(check bool) "qs start not worse" true
    (from_qs.Mpde.Solver.stats.newton_iterations
    <= from_dc.Mpde.Solver.stats.newton_iterations);
  (* Both starts must land on the same solution. *)
  Alcotest.(check bool) "same fixed point" true
    (Linalg.Vec.norm2 (Linalg.Vec.sub from_qs.Mpde.Solver.big_x from_dc.Mpde.Solver.big_x) < 1e-5)

let test_frozen_column_is_periodic_steady_state () =
  (* A frozen column at t2 is the fast-scale periodic problem: on a
     system built from the same DAE, the MPDE fast column and
     Periodic_fd run the one collocation kernel with the same
     backward-difference operator, times and seed, so they agree bit
     for bit. *)
  let f1 = 1e6 in
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~drive:(W.sine ~amplitude:1.0 ~freq:f1 ()) ()
  in
  let dae = Circuit.Mna.dae mna in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:1e3 in
  let sys = Mpde.Assemble.of_dae dae in
  let column = Mpde.Fast_column.frozen_column sys ~n1:64 ~shear ~t2:0.0 in
  let reference = Steady.Periodic_fd.solve ~dae ~period:(1.0 /. f1) ~points:64 () in
  Alcotest.(check bool) "reference converged" true reference.Steady.Solution.converged;
  let states = reference.Steady.Solution.trace.Numeric.Integrator.states in
  Alcotest.(check int) "points" (Array.length states) (Array.length column);
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun v xv ->
          Alcotest.(check int64)
            (Printf.sprintf "bits of state %d at point %d" v i)
            (Int64.bits_of_float states.(i).(v))
            (Int64.bits_of_float xv))
        x)
    column

let () =
  Alcotest.run "extensions2"
    [
      ( "multiple shooting",
        [
          Alcotest.test_case "matches single shooting" `Quick test_mshoot_matches_single;
          Alcotest.test_case "matching defects closed" `Quick test_mshoot_matching_defects_closed;
          Alcotest.test_case "single segment" `Quick test_mshoot_single_segment_is_shooting;
          Alcotest.test_case "validation" `Quick test_mshoot_validation;
        ] );
      ( "refine",
        [
          Alcotest.test_case "estimates decrease" `Quick test_refine_estimates_decrease;
        ] );
      ( "gilbert mixer",
        [
          Alcotest.test_case "dc operating point" `Quick test_gilbert_dc;
          Alcotest.test_case "mpde conversion" `Slow test_gilbert_mpde_conversion;
          Alcotest.test_case "lo leakage suppressed" `Slow test_gilbert_balance_rejects_lo_leakage;
        ] );
      ( "bi-spectral (two-tone HB)",
        [
          Alcotest.test_case "exact on linear" `Quick test_bispectral_exact_on_linear;
          Alcotest.test_case "odd dims required" `Quick test_bispectral_requires_odd_dims;
        ] );
      ( "bridge rectifier",
        [
          Alcotest.test_case "full wave" `Quick test_bridge_full_wave;
          Alcotest.test_case "beat via mpde" `Quick test_bridge_beat_via_mpde;
        ] );
      ( "quasi-static start",
        [
          Alcotest.test_case "close to solution" `Quick test_quasi_static_start_close_to_solution;
          Alcotest.test_case "frozen column = periodic pss" `Quick
            test_frozen_column_is_periodic_steady_state;
        ] );
    ]
