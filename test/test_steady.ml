(* Tests for the single-time steady-state baselines: shooting,
   periodic finite differences, harmonic balance. All three are
   validated against closed-form responses of linear circuits and
   against each other on nonlinear ones. *)

module W = Circuit.Waveform
module N = Circuit.Netlist

let pi = 4.0 *. atan 1.0

(* RC lowpass driven by a 1 kHz sine; analytic gain/phase. *)
let rc_freq = 1e3
let rc_r = 1e3
let rc_c = 0.2e-6

let rc_fixture () =
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~r:rc_r ~c:rc_c
      ~drive:(W.sine ~amplitude:1.0 ~freq:rc_freq ())
      ()
  in
  mna

let rc_analytic t =
  let w = 2.0 *. pi *. rc_freq in
  let wrc = w *. rc_r *. rc_c in
  let gain = 1.0 /. sqrt (1.0 +. (wrc *. wrc)) in
  gain *. sin ((w *. t) -. atan wrc)

let max_err_vs_analytic times states idx =
  let worst = ref 0.0 in
  Array.iteri
    (fun k t -> worst := Float.max !worst (Float.abs (states.(k).(idx) -. rc_analytic t)))
    times;
  !worst

(* ---------- Shooting ---------- *)

let unbalanced_mixer_fixture disparity =
  let f_lo = 1e6 in
  let fd = f_lo /. disparity in
  let { Circuits.mna; _ } =
    Circuits.unbalanced_mixer ~f_lo
      ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
      ~rf_amplitude:0.05 ()
  in
  (mna, 1.0 /. fd)

let rectifier_fixture () =
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier ~load_r:10e3 ~load_c:0.5e-6
      ~drive:(W.sine ~amplitude:2.0 ~freq:rc_freq ())
      ()
  in
  mna

(* Amplitude of harmonic [k] of one unknown's steady-state waveform,
   from the FFT of its trace over one period. *)
let harmonic_amplitude (r : Steady.Solution.t) ~unknown ~harmonic =
  Numeric.Fft.amplitude_at
    (Array.map (fun x -> x.(unknown)) r.Steady.Solution.trace.Numeric.Integrator.states)
    harmonic

let test_shooting_rc () =
  let mna = rc_fixture () in
  let r =
    Steady.Shooting.solve ~steps_per_period:512 ~dae:(Circuit.Mna.dae mna)
      ~period:(1.0 /. rc_freq) ()
  in
  Alcotest.(check bool) "converged" true r.Steady.Solution.converged;
  let idx = Circuit.Mna.node_index mna "out" in
  let err =
    max_err_vs_analytic r.Steady.Solution.trace.Numeric.Integrator.times
      r.Steady.Solution.trace.Numeric.Integrator.states idx
  in
  Alcotest.(check bool) "matches analytic (BE accuracy)" true (err < 0.01)

let test_shooting_linear_one_newton () =
  (* For a linear circuit, the periodicity map is affine: shooting must
     converge in a single Newton iteration. *)
  let mna = rc_fixture () in
  let r =
    Steady.Shooting.solve ~steps_per_period:128 ~dae:(Circuit.Mna.dae mna)
      ~period:(1.0 /. rc_freq) ()
  in
  Alcotest.(check bool) "one newton" true (r.Steady.Solution.newton_iterations <= 1)

let test_shooting_periodicity () =
  let mna = rc_fixture () in
  let r =
    Steady.Shooting.solve ~steps_per_period:256 ~dae:(Circuit.Mna.dae mna)
      ~period:(1.0 /. rc_freq) ()
  in
  let states = r.Steady.Solution.trace.Numeric.Integrator.states in
  let first = states.(0) and last = states.(Array.length states - 1) in
  Alcotest.(check bool) "x(T) = x(0)" true (Linalg.Kernel.nrm2 (Linalg.Vec.sub first last) < 1e-6)

let test_shooting_rectifier () =
  let mna = rectifier_fixture () in
  let dc = Circuit.Dcop.solve_exn mna in
  let r =
    Steady.Shooting.solve ~steps_per_period:512 ~x0:dc ~dae:(Circuit.Mna.dae mna)
      ~period:(1.0 /. rc_freq) ()
  in
  Alcotest.(check bool) "converged" true r.Steady.Solution.converged;
  let idx = Circuit.Mna.node_index mna "out" in
  let samples = Array.map (fun x -> x.(idx)) r.Steady.Solution.trace.Numeric.Integrator.states in
  let mean = Linalg.Vec.mean samples in
  (* Rectified 2 V sine into a big RC: mean well above zero, below peak. *)
  Alcotest.(check bool) "rectified mean" true (mean > 0.8 && mean < 2.0)

(* ---------- Shooting sensitivity ---------- *)

(* The window monodromy from [integrate_with_sensitivity] against
   central differences of the window's end state, each perturbed run on
   a fresh workspace. Returns max |M| and max |M − M_fd|; the integer
   is how many times the workspace rebuilt G and C for a pattern
   change. *)
let monodromy_vs_fd ~dae ~x0 ~t0 ~duration ~steps =
  let integrate x0 =
    Steady.Shooting.integrate_with_sensitivity
      ~workspace:(Numeric.Integrator.workspace dae)
      ~x0 ~t0 ~duration ~steps ()
  in
  Telemetry.enable ();
  let _, m = integrate x0 in
  let snap = match Telemetry.snapshot () with Some s -> s | None -> assert false in
  Telemetry.disable ();
  let rebuilds =
    Option.value ~default:0
      (List.assoc_opt "integrator.jacobian_rebuilds" snap.Telemetry.counters)
  in
  let n = dae.Numeric.Dae.size in
  let m_max = ref 0.0 and err = ref 0.0 in
  for j = 0 to n - 1 do
    let eps = 1e-6 *. Float.max 1.0 (Float.abs x0.(j)) in
    let end_state delta =
      let x = Array.copy x0 in
      x.(j) <- x.(j) +. delta;
      let trace, _ = integrate x in
      trace.Numeric.Integrator.states.(steps)
    in
    let plus = end_state eps and minus = end_state (-.eps) in
    for i = 0 to n - 1 do
      let fd = (plus.(i) -. minus.(i)) /. (2.0 *. eps) in
      let mij = Linalg.Mat.get m i j in
      m_max := Float.max !m_max (Float.abs mij);
      err := Float.max !err (Float.abs (mij -. fd))
    done
  done;
  (!m_max, !err, rebuilds)

let check_monodromy name ~dae ~x0 ~t0 ~duration ~steps ~nontrivial =
  let m_max, err, _ = monodromy_vs_fd ~dae ~x0 ~t0 ~duration ~steps in
  if nontrivial then
    Alcotest.(check bool) (Printf.sprintf "%s: |M| = %.2e is not negligible" name m_max) true
      (m_max > 1e-5);
  Alcotest.(check bool)
    (Printf.sprintf "%s: |M - FD| = %.2e <= 1e-5 max(1, |M|)" name err)
    true
    (err <= 1e-5 *. Float.max 1.0 m_max)

(* The unbalanced mixer at disparities 29.75 and 39.81 (10 steps per LO
   cycle): the full difference period from the DC point, and four
   steps from the zero state, where the MOSFET's Jacobian pattern grows
   after the first step and the workspace must rebuild G and C. *)
let test_monodromy_mixer disparity () =
  let mna, period = unbalanced_mixer_fixture disparity in
  let dae = Circuit.Mna.dae mna in
  let steps = int_of_float (Float.round (10.0 *. disparity)) in
  let h = period /. float_of_int steps in
  check_monodromy "period" ~dae ~x0:(Circuit.Dcop.solve_exn mna) ~t0:0.0 ~duration:period
    ~steps ~nontrivial:false;
  let zero = Array.make dae.Numeric.Dae.size 0.0 in
  check_monodromy "4 steps from zero" ~dae ~x0:zero ~t0:0.0 ~duration:(4.0 *. h) ~steps:4
    ~nontrivial:true;
  let _, _, rebuilds = monodromy_vs_fd ~dae ~x0:zero ~t0:0.0 ~duration:(4.0 *. h) ~steps:4 in
  Alcotest.(check bool) (Printf.sprintf "pattern-change rebuilds (%d) >= 2" rebuilds) true
    (rebuilds >= 2)

(* The rectifier: the full period (the diode's conduction wipes out the
   initial state), the negative half where the load capacitor holds
   its charge, and a charged capacitor carried from the negative peak
   through the diode switching on near the positive peak. *)
let test_monodromy_rectifier () =
  let mna = rectifier_fixture () in
  let dae = Circuit.Mna.dae mna in
  let x0 = Circuit.Dcop.solve_exn mna in
  let period = 1.0 /. rc_freq and steps = 512 in
  let h = period /. float_of_int steps in
  check_monodromy "period" ~dae ~x0 ~t0:0.0 ~duration:period ~steps ~nontrivial:false;
  check_monodromy "off half" ~dae ~x0 ~t0:(period /. 2.0) ~duration:(64.0 *. h) ~steps:64
    ~nontrivial:true;
  let charged = Array.copy x0 in
  charged.(Circuit.Mna.node_index mna "out") <- 1.5;
  check_monodromy "switch-on" ~dae ~x0:charged ~t0:(0.75 *. period) ~duration:(256.0 *. h)
    ~steps:256 ~nontrivial:true

(* Allocation guard on the shooting hot loop: one difference period of
   the unbalanced mixer at disparity 756.5 (7 565 steps) stays under
   100 minor words per step. It reads about 48: the step's result and
   its copy of the state (11), the sources' waveform evaluation (18)
   and floats boxed for the telemetry and axpy calls.
   A Newton loop that builds its buffers, ring and closures per step
   reads about 256, and rebuilding the step Jacobian from scratch
   about 5 000. *)
let test_shooting_step_allocation () =
  let disparity = 756.5 in
  let mna, period = unbalanced_mixer_fixture disparity in
  let dae = Circuit.Mna.dae mna in
  let x0 = Circuit.Dcop.solve_exn mna in
  let steps = 7565 in
  let workspace = Numeric.Integrator.workspace dae in
  let before = Gc.minor_words () in
  ignore
    (Steady.Shooting.integrate_with_sensitivity ~workspace ~x0 ~t0:0.0 ~duration:period ~steps
       ());
  let per_step = (Gc.minor_words () -. before) /. float_of_int steps in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words per step <= 100" per_step) true
    (per_step <= 100.0)

(* Bitwise pins on the time-stepping path. Each value is
   {!Engine.Checkpoint.waveform_hash} (FNV-1a over the raw bits of the
   times and the output voltages), recorded before the step Newton
   moved onto a reused workspace: a step that reorders one float
   operation changes the hash. *)
let mixer_problem_d40 () =
  let f_lo = 1e6 in
  let fd = f_lo /. 40.0 in
  Engine.Problem.make ~label:"mixer d=40" ~period:Engine.Problem.Difference_tone ~output:"out"
    ~f_fast:f_lo ~fd (fun () ->
      Circuits.unbalanced_mixer ~f_lo
        ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
        ~rf_amplitude:0.05 ())

let engine_hash kind =
  let options = { Engine.Options.default with steps_per_period = 400 } in
  let r = Engine.run (mixer_problem_d40 ()) (Engine.make ~options kind) in
  Alcotest.(check bool) "converged" true r.Engine.Result.converged;
  Engine.Checkpoint.waveform_hash r.Engine.Result.waveform

let test_shooting_bitwise () =
  Alcotest.(check string) "shooting d=40" "63f9571be3cc7c10" (engine_hash Engine.Shooting)

let test_multiple_shooting_bitwise () =
  Alcotest.(check string) "multiple shooting d=40" "039206fb824cdca1"
    (engine_hash Engine.Multiple_shooting)

let test_transient_bitwise () =
  let mna = rectifier_fixture () in
  let r = Circuit.Transient.run ~mna ~t_stop:(2.0 /. rc_freq) ~steps:400 () in
  let trace = r.Circuit.Transient.trace in
  let waveform =
    {
      Engine.Result.times = trace.Numeric.Integrator.times;
      values = Numeric.Integrator.sample trace (Circuit.Mna.node_index mna "out");
    }
  in
  Alcotest.(check string) "rectifier transient" "2fdee70ae1eda0d1"
    (Engine.Checkpoint.waveform_hash waveform)

(* The same pins on the MPDE path: Newton, the matrix-free GMRES with
   the block-sweep preconditioner, the sparse-LU direct solve, and the
   κ estimate of Health.probe. *)
let mpde_hash ?(n1 = 40) ?(n2 = 30) problem =
  let options = { Engine.Options.default with n1; n2 } in
  let r = Engine.run problem (Engine.make ~options Engine.Mpde) in
  Alcotest.(check bool) "converged" true r.Engine.Result.converged;
  Engine.Checkpoint.waveform_hash r.Engine.Result.waveform

(* The paper's balanced mixer on its 40x30 grid, as the paper-mixer
   benchmark builds it. *)
let test_mpde_mixer_bitwise () =
  let f_lo = 450e6 and fd = 15e3 in
  let nodes = Circuits.balanced_mixer_nodes in
  let problem =
    Engine.Problem.make ~label:"balanced-mixer" ~output:nodes.Circuits.out_plus
      ~output_b:nodes.Circuits.out_minus ~f_fast:f_lo ~fd (fun () ->
        let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
        Circuits.balanced_mixer ~f_lo ~rf_signal ())
  in
  Alcotest.(check string) "balanced mixer 40x30" "82708a38e68c7f68" (mpde_hash problem)

(* The full-wave bridge on its 24x12 grid, as the bridge-rectifier
   benchmark builds it. *)
let test_mpde_bridge_bitwise () =
  let f1 = 50e3 and fd = 500.0 in
  let problem =
    Engine.Problem.make ~label:"bridge-rectifier" ~output:"p" ~output_b:"n" ~f_fast:f1 ~fd
      (fun () ->
        let drive =
          W.sum (W.sine ~amplitude:10.0 ~freq:f1 ()) (W.sine ~amplitude:2.0 ~freq:(f1 +. fd) ())
        in
        Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive ())
  in
  Alcotest.(check string) "bridge rectifier 24x12" "8ed7a83dd61dd748" (mpde_hash ~n1:24 ~n2:12 problem)

let test_mpde_direct_bitwise () =
  let mna, period = unbalanced_mixer_fixture 40.0 in
  let shear = Mpde.Shear.make ~fast_freq:1e6 ~slow_freq:(1.0 /. period) in
  let sol =
    Mpde.Solver.solve_mna
      ~options:{ Mpde.Solver.default_options with linear_solver = Mpde.Solver.Direct }
      ~shear ~n1:16 ~n2:10 mna
  in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.Mpde.Solver.converged;
  Alcotest.(check string) "direct mixer 16x10" "e077daf08d44c127"
    (Engine.Checkpoint.waveform_hash { Engine.Result.times = [||]; values = sol.Mpde.Solver.big_x })

let test_health_kappa_bitwise () =
  let fixture = Result.get_ok (Serve.Catalog.find "rc") in
  let f_fast = fixture.Serve.Catalog.default_fast and fd = fixture.Serve.Catalog.default_fd in
  let r =
    Engine.run (Serve.Catalog.problem_of fixture ~f_fast ~fd) (Engine.make Engine.Mpde)
  in
  let { Circuits.mna; _ } = fixture.Serve.Catalog.build ~f_fast ~fd in
  let unknown = Circuit.Mna.node_index mna fixture.Serve.Catalog.output_node in
  let h =
    Diagnostics.Health.probe (Option.get r.Engine.Result.mpde_solution) ~unknown
      r.Engine.Result.health
  in
  let kappa = Option.get h.Diagnostics.Health.condition_estimate in
  Alcotest.(check string) "rc kappa bits" "408f4170ce28755d"
    (Printf.sprintf "%016Lx" (Int64.bits_of_float kappa))

(* ---------- Periodic FD ---------- *)

let test_periodic_fd_rc () =
  let mna = rc_fixture () in
  let r =
    Steady.Periodic_fd.solve ~dae:(Circuit.Mna.dae mna) ~period:(1.0 /. rc_freq)
      ~points:256 ()
  in
  Alcotest.(check bool) "converged" true r.Steady.Solution.converged;
  let idx = Circuit.Mna.node_index mna "out" in
  let worst = ref 0.0 in
  Array.iteri
    (fun k t ->
      worst :=
        Float.max !worst
          (Float.abs (r.Steady.Solution.trace.Numeric.Integrator.states.(k).(idx) -. rc_analytic t)))
    r.Steady.Solution.trace.Numeric.Integrator.times;
  Alcotest.(check bool) "matches analytic" true (!worst < 0.02)

let test_periodic_fd_matches_shooting () =
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier ~drive:(W.sine ~amplitude:2.0 ~freq:rc_freq ()) ()
  in
  let dc = Circuit.Dcop.solve_exn mna in
  let period = 1.0 /. rc_freq in
  let points = 256 in
  let fd = Steady.Periodic_fd.solve ~x_init:dc ~dae:(Circuit.Mna.dae mna) ~period ~points () in
  let sh =
    Steady.Shooting.solve ~steps_per_period:points ~x0:dc ~dae:(Circuit.Mna.dae mna)
      ~period ()
  in
  Alcotest.(check bool) "both converged" true
    (fd.Steady.Solution.converged && sh.Steady.Solution.converged);
  let idx = Circuit.Mna.node_index mna "out" in
  (* Same BE discretization, same grid → nearly identical waveforms. *)
  let worst = ref 0.0 in
  for k = 0 to points - 1 do
    worst :=
      Float.max !worst
        (Float.abs
           (fd.Steady.Solution.trace.Numeric.Integrator.states.(k).(idx)
           -. sh.Steady.Solution.trace.Numeric.Integrator.states.(k).(idx)))
  done;
  Alcotest.(check bool) "fd = shooting on same grid" true (!worst < 1e-4)

let test_shooting_rejects_zero_steps () =
  let mna = rc_fixture () in
  Alcotest.check_raises "steps_per_period < 1"
    (Invalid_argument "Shooting.solve: steps_per_period must be positive") (fun () ->
      ignore
        (Steady.Shooting.solve ~dae:(Circuit.Mna.dae mna) ~period:1.0 ~steps_per_period:0 ()))

let test_periodic_fd_rejects_bad_input () =
  let mna = rc_fixture () in
  Alcotest.check_raises "points < 2"
    (Invalid_argument "Periodic_fd.solve: need at least 2 points") (fun () ->
      ignore (Steady.Periodic_fd.solve ~dae:(Circuit.Mna.dae mna) ~period:1.0 ~points:1 ()))

(* ---------- Harmonic balance ---------- *)

let test_hb_linear_exact () =
  (* HB is exact for linear circuits with sinusoidal drive even with
     one harmonic. *)
  let mna = rc_fixture () in
  let r = Steady.Hb.solve ~dae:(Circuit.Mna.dae mna) ~period:(1.0 /. rc_freq) ~harmonics:2 () in
  Alcotest.(check bool) "converged" true r.Steady.Solution.converged;
  let idx = Circuit.Mna.node_index mna "out" in
  let w = 2.0 *. pi *. rc_freq in
  let expected = 1.0 /. sqrt (1.0 +. ((w *. rc_r *. rc_c) ** 2.0)) in
  Alcotest.(check (float 1e-9)) "amplitude exact" expected
    (harmonic_amplitude r ~unknown:idx ~harmonic:1)

let test_hb_rectifier_needs_harmonics () =
  (* HB self-convergence on the rectifier: the waveform with few
     harmonics differs visibly from a high-order reference, and the
     error shrinks as harmonics are added — quantifying the paper's
     point that sharp nonlinear waveforms are expensive for HB. *)
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier ~drive:(W.sine ~amplitude:2.0 ~freq:rc_freq ()) ()
  in
  let dc = Circuit.Dcop.solve_exn mna in
  let idx = Circuit.Mna.node_index mna "out" in
  let hb_waveform harmonics =
    let r =
      Steady.Hb.solve ~x_init:dc ~dae:(Circuit.Mna.dae mna) ~period:(1.0 /. rc_freq)
        ~harmonics ()
    in
    Alcotest.(check bool) (Printf.sprintf "hb%d converged" harmonics) true r.Steady.Solution.converged;
    Array.map (fun x -> x.(idx)) r.Steady.Solution.trace.Numeric.Integrator.states
  in
  let reference = hb_waveform 30 in
  let err harmonics =
    let w = hb_waveform harmonics in
    let worst = ref 0.0 in
    for k = 0 to 99 do
      let u = float_of_int k /. 100.0 in
      let v = Numeric.Interp.linear_periodic w u in
      let r = Numeric.Interp.linear_periodic reference u in
      worst := Float.max !worst (Float.abs (v -. r))
    done;
    !worst
  in
  let err_few = err 2 and err_many = err 12 in
  Alcotest.(check bool)
    (Printf.sprintf "more harmonics help (err2 %.4f vs err12 %.4f)" err_few err_many)
    true
    (err_many < err_few /. 2.0)

let test_hb_rejects_zero_harmonics () =
  let mna = rc_fixture () in
  Alcotest.check_raises "harmonics < 1"
    (Invalid_argument "Hb.solve: need at least 1 harmonic") (fun () ->
      ignore (Steady.Hb.solve ~dae:(Circuit.Mna.dae mna) ~period:1.0 ~harmonics:0 ()))

(* ---------- cross-method ---------- *)

let test_three_methods_agree_on_rlc () =
  let { Circuits.mna; _ } =
    Circuits.rlc_series ~r:200.0 ~l:1e-3 ~c:1e-6
      ~drive:(W.sine ~amplitude:1.0 ~freq:2e3 ())
      ()
  in
  let dae = Circuit.Mna.dae mna in
  let period = 1.0 /. 2e3 in
  let idx = Circuit.Mna.node_index mna "out" in
  let amp_of samples =
    (Array.fold_left Float.max neg_infinity samples
    -. Array.fold_left Float.min infinity samples)
    /. 2.0
  in
  let sh = Steady.Shooting.solve ~steps_per_period:1024 ~dae ~period () in
  let hb = Steady.Hb.solve ~dae ~period ~harmonics:4 () in
  let fd = Steady.Periodic_fd.solve ~dae ~period ~points:1024 () in
  let a_sh =
    amp_of (Array.map (fun x -> x.(idx)) sh.Steady.Solution.trace.Numeric.Integrator.states)
  in
  let a_hb = harmonic_amplitude hb ~unknown:idx ~harmonic:1 in
  let a_fd = amp_of (Array.map (fun x -> x.(idx)) fd.Steady.Solution.trace.Numeric.Integrator.states) in
  Alcotest.(check bool) "shooting vs hb" true (Float.abs (a_sh -. a_hb) /. a_hb < 0.02);
  Alcotest.(check bool) "fd vs hb" true (Float.abs (a_fd -. a_hb) /. a_hb < 0.02)

let () =
  Alcotest.run "steady"
    [
      ( "shooting",
        [
          Alcotest.test_case "rc analytic" `Quick test_shooting_rc;
          Alcotest.test_case "linear = 1 newton" `Quick test_shooting_linear_one_newton;
          Alcotest.test_case "periodicity" `Quick test_shooting_periodicity;
          Alcotest.test_case "rectifier" `Quick test_shooting_rectifier;
          Alcotest.test_case "monodromy vs FD, mixer d=29.75" `Quick
            (test_monodromy_mixer 29.75);
          Alcotest.test_case "monodromy vs FD, mixer d=39.81" `Quick
            (test_monodromy_mixer 39.81);
          Alcotest.test_case "monodromy vs FD, rectifier" `Quick test_monodromy_rectifier;
          Alcotest.test_case "step allocation" `Quick test_shooting_step_allocation;
          Alcotest.test_case "input validation" `Quick test_shooting_rejects_zero_steps;
        ] );
      ( "bitwise",
        [
          Alcotest.test_case "shooting d=40" `Quick test_shooting_bitwise;
          Alcotest.test_case "multiple shooting d=40" `Quick test_multiple_shooting_bitwise;
          Alcotest.test_case "rectifier transient" `Quick test_transient_bitwise;
          Alcotest.test_case "mpde balanced mixer 40x30" `Quick test_mpde_mixer_bitwise;
          Alcotest.test_case "mpde bridge rectifier 24x12" `Quick test_mpde_bridge_bitwise;
          Alcotest.test_case "mpde direct mixer 16x10" `Quick test_mpde_direct_bitwise;
          Alcotest.test_case "health kappa rc" `Quick test_health_kappa_bitwise;
        ] );
      ( "periodic_fd",
        [
          Alcotest.test_case "rc analytic" `Quick test_periodic_fd_rc;
          Alcotest.test_case "matches shooting" `Quick test_periodic_fd_matches_shooting;
          Alcotest.test_case "input validation" `Quick test_periodic_fd_rejects_bad_input;
        ] );
      ( "harmonic_balance",
        [
          Alcotest.test_case "linear exact" `Quick test_hb_linear_exact;
          Alcotest.test_case "harmonics vs sharpness" `Slow test_hb_rectifier_needs_harmonics;
          Alcotest.test_case "input validation" `Quick test_hb_rejects_zero_harmonics;
        ] );
      ( "cross-method",
        [ Alcotest.test_case "rlc agreement" `Slow test_three_methods_agree_on_rlc ] );
    ]
