(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus the ablations
   DESIGN.md calls out. Two parts:

   1. experiment series — each figure/table is recomputed once and its
      rows/series printed in the shape the paper reports;
   2. bechamel micro-timings — one Test.make per experiment kernel.

   Run: dune exec bench/main.exe            (everything)
        dune exec bench/main.exe -- series  (series only)
        dune exec bench/main.exe -- timings (bechamel only) *)

module W = Circuit.Waveform

let pr fmt = Printf.printf fmt

let header title =
  pr "\n================================================================\n";
  pr "%s\n" title;
  pr "================================================================\n"

(* Wall time from the shared monotonic clock; [Sys.time] only measures
   CPU seconds, which silently under-reports any solver that blocks or
   is descheduled. Both are returned so tables can show the gap. *)
let time f =
  let w0 = Telemetry.Clock.wall () and c0 = Telemetry.Clock.cpu () in
  let y = f () in
  (y, Telemetry.Clock.wall () -. w0, Telemetry.Clock.cpu () -. c0)

(* Best wall time of three runs of a deterministic [f], with the first
   run's result: the minimum strips the scheduler noise a single sample
   on a busy host keeps. *)
let best_of_3 f =
  let y, wall, _ = time f in
  let best = ref wall in
  for _ = 1 to 2 do
    let _, w, _ = time f in
    best := Float.min !best w
  done;
  (y, !best)

(* ------------------------------------------------------------------ *)
(* FIG1 / FIG2: ideal mixing surfaces, unsheared vs sheared            *)
(* ------------------------------------------------------------------ *)

let ideal_product_waveform f1 f2 =
  {
    W.dc = 0.0;
    terms =
      [
        {
          W.gain = 1.0;
          factors =
            [
              { W.shape = W.Cos { phase = 0.0 }; freq = f1 };
              { W.shape = W.Cos { phase = 0.0 }; freq = f2 };
            ];
        };
      ];
  }

let fig1_fig2 () =
  header
    "FIG1/FIG2 - ideal mixing z(t) = cos(2π f1 t)·cos(2π f2 t), f1 = 1 GHz, f2 = f1 - 10 kHz";
  let f1 = 1e9 in
  let fd = 10e3 in
  let f2 = f1 -. fd in
  let z = ideal_product_waveform f1 f2 in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let n = 8 in
  pr "\nFIG1 (unsheared, both axes span 1 ns; no difference-frequency variation visible):\n";
  pr "%8s" "t1\\t2(ns)";
  for j = 0 to n - 1 do
    pr "%8.3f" (float_of_int j /. float_of_int n)
  done;
  pr "\n";
  for i = 0 to n - 1 do
    let t1 = float_of_int i /. float_of_int n *. 1e-9 in
    pr "%8.3f" (1e9 *. t1);
    for j = 0 to n - 1 do
      let t2 = float_of_int j /. float_of_int n *. 1e-9 in
      pr "%8.3f" (W.eval_with ~phase_of:(Mpde.Shear.phase_unsheared shear ~t1 ~t2) z)
    done;
    pr "\n"
  done;
  pr "\nFIG2 (sheared, t2 axis spans the 0.1 ms difference period):\n";
  pr "%8s" "t1\\t2(us)";
  for j = 0 to n - 1 do
    pr "%8.1f" (1e6 *. (float_of_int j /. float_of_int n) /. fd)
  done;
  pr "\n";
  for i = 0 to n - 1 do
    let t1 = float_of_int i /. float_of_int n *. 1e-9 in
    pr "%8.3f" (1e9 *. t1);
    for j = 0 to n - 1 do
      let t2 = float_of_int j /. float_of_int n /. fd in
      pr "%8.3f" (W.eval_with ~phase_of:(Mpde.Shear.phase shear ~t1 ~t2) z)
    done;
    pr "\n"
  done;
  pr "\nShape check: FIG2's j-axis variation is the 10 kHz difference tone\n\
     (cos envelope from +1 through -1 and back), invisible in FIG1.\n"

(* ------------------------------------------------------------------ *)
(* FIG3-FIG6: balanced LO-doubling mixer                               *)
(* ------------------------------------------------------------------ *)

let solve_balanced_mixer () =
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, bits = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:40 ~n2:30 mna in
  (sol, mna, bits)

let fig3_to_fig6 () =
  header
    "FIG3-FIG6 - balanced LO-doubling mixer, LO 450 MHz, bit-modulated RF near 900 MHz, fd = 15 kHz, 40x30 grid";
  let (sol, mna, bits), seconds, cpu_seconds = time solve_balanced_mixer in
  let stats = sol.Mpde.Solver.stats in
  pr "solve: converged=%b  newton=%d  gmres-iters=%d  residual=%.2e  wall=%.2fs  cpu=%.2fs\n"
    stats.Mpde.Solver.converged stats.Mpde.Solver.newton_iterations
    stats.Mpde.Solver.linear_iterations stats.Mpde.Solver.residual_norm seconds
    cpu_seconds;
  pr "(paper: 26 Newton iterations, 1m03s on a 1.4 GHz Athlon; 1200 grid unknowns)\n";
  let nodes = Circuits.balanced_mixer_nodes in
  let diff =
    Mpde.Extract.differential_surface sol mna nodes.Circuits.out_plus nodes.Circuits.out_minus
  in
  pr "\nFIG3 - multi-time differential output (every 5th grid line):\n";
  pr "%10s" "t1(ns)\\t2";
  for j = 0 to 29 do
    if j mod 5 = 0 then pr "%9.1fus" (1e6 *. Mpde.Grid.t2_of sol.Mpde.Solver.grid j)
  done;
  pr "\n";
  for i = 0 to 39 do
    if i mod 5 = 0 then begin
      pr "%10.3f" (1e9 *. Mpde.Grid.t1_of sol.Mpde.Solver.grid i);
      for j = 0 to 29 do
        if j mod 5 = 0 then pr "%11.4f" diff.(i).(j)
      done;
      pr "\n"
    end
  done;
  let env = Mpde.Extract.envelope sol ~values:diff in
  let times = Mpde.Extract.envelope_times sol in
  pr "\nFIG4 - baseband differential output along the difference time scale (0-%.0f us):\n"
    (1e6 /. 15e3);
  pr "  bits = %s (one 0-bit nulls the envelope)\n"
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits)));
  Array.iteri
    (fun j v -> pr "  t2 = %6.2f us  v = %+.4f V\n" (1e6 *. times.(j)) v)
    env;
  let vs = Mpde.Extract.surface_of_node sol mna nodes.Circuits.source_node in
  pr "\nFIG5 - voltage at the differential pair's common source (doubler output), j = 0 column:\n";
  for i = 0 to 39 do
    if i mod 2 = 0 then
      pr "  t1 = %5.3f ns  v = %.4f V\n" (1e9 *. Mpde.Grid.t1_of sol.Mpde.Solver.grid i)
        vs.(i).(0)
  done;
  let col = Array.init 40 (fun i -> vs.(i).(0)) in
  let h = Numeric.Fft.real_harmonics col in
  pr "  harmonic content: |H1| = %.4f, |H2| = %.4f  (H2 >> H1: LO doubling)\n"
    (fst h.(1)) (fst h.(2));
  let t_start = 2.223e-6 in
  let times6, series6 =
    Mpde.Extract.diagonal sol ~values:vs ~t_start ~t_stop:(t_start +. (5.0 /. 450e6))
      ~samples:40
  in
  pr "\nFIG6 - one-time source voltage over 5 LO periods (diagonal resampling):\n";
  Array.iteri
    (fun k v -> if k mod 2 = 0 then pr "  t = %.5f us  v = %.4f V\n" (1e6 *. times6.(k)) v)
    series6;
  pr "\nMixing-product map of the differential output (2-D spectrum of FIG3):\n";
  pr "%-8s %-8s %-14s %-16s\n" "k1*fLO" "k2*fd" "amplitude (V)" "frequency";
  List.iter
    (fun p ->
      pr "%-8d %-8d %-14.5f %.6e Hz\n" p.Mpde.Extract.k1 p.Mpde.Extract.k2
        p.Mpde.Extract.amplitude p.Mpde.Extract.frequency)
    (Mpde.Extract.mixing_spectrum sol ~values:diff ~top:8 ());
  (sol, mna, bits)

(* ------------------------------------------------------------------ *)
(* SPEEDUP / BREAKEVEN tables                                          *)
(* ------------------------------------------------------------------ *)

let unbalanced_fixture fd =
  let f_lo = 1e6 in
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) () in
  let { Circuits.mna; _ } =
    Circuits.unbalanced_mixer ~f_lo ~rf_signal ~rf_amplitude:0.05 ()
  in
  (mna, Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd)

let speedup_tables () =
  header "SPEEDUP - MPDE vs single-time shooting across one difference period";
  pr "(unbalanced switching mixer, LO 1 MHz; shooting uses 10 steps per LO cycle;\n";
  pr " each time is the best of three runs; paper reports >100x at disparity\n";
  pr " 30000 and break-even near 200)\n\n";
  pr "%-10s %-12s %-12s %-12s %-14s\n" "disparity" "mpde (s)" "shooting (s)" "ratio"
    "shoot steps";
  let rows =
    List.map
      (fun disparity ->
        let fd = 1e6 /. disparity in
        let mna, shear = unbalanced_fixture fd in
        let sol, mpde_t =
          best_of_3 (fun () -> Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna)
        in
        assert sol.Mpde.Solver.stats.converged;
        let steps = int_of_float (10.0 *. disparity) in
        let dc = Circuit.Dcop.solve_exn mna in
        let _, shoot_t =
          best_of_3 (fun () ->
              Steady.Shooting.solve ~steps_per_period:steps ~x0:dc
                ~dae:(Circuit.Mna.dae mna) ~period:(1.0 /. fd) ())
        in
        pr "%-10.0f %-12.4f %-12.4f %-12.1f %-14d\n" disparity mpde_t shoot_t
          (shoot_t /. mpde_t) steps;
        (disparity, mpde_t, shoot_t))
      [ 10.; 30.; 100.; 300.; 600. ]
  in
  (* Break-even: linear fit of shooting time vs disparity against the
     median MPDE time. *)
  let mpde_med =
    let ts = List.map (fun (_, m, _) -> m) rows in
    List.nth (List.sort compare ts) (List.length ts / 2)
  in
  let slope =
    let sum_xy = List.fold_left (fun a (d, _, s) -> a +. (d *. s)) 0.0 rows in
    let sum_xx = List.fold_left (fun a (d, _, _) -> a +. (d *. d)) 0.0 rows in
    sum_xy /. sum_xx
  in
  pr "\nBREAKEVEN - shooting time ≈ %.2e s per unit disparity; MPDE ≈ %.4f s flat\n"
    slope mpde_med;
  pr "  → crossover at disparity ≈ %.0f; extrapolated advantage at the paper's\n"
    (mpde_med /. slope);
  pr "    disparity 30000 ≈ %.0fx (paper: >100x)\n" (slope *. 30000.0 /. mpde_med)

(* ------------------------------------------------------------------ *)
(* NEWTON convergence table (paper: 26 iters warm; continuation cold)  *)
(* ------------------------------------------------------------------ *)

let newton_table () =
  header "NEWTON - convergence behaviour on the balanced mixer (40x30 grid)";
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let grid = Mpde.Grid.make ~shear ~n1:40 ~n2:30 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  pr "%-28s %-8s %-10s %-14s %-10s\n" "start" "newton" "converged" "continuation" "wall (s)";
  let run name seed options =
    let sol, seconds, _ = time (fun () -> Mpde.Solver.solve ~options ?seed sys grid) in
    pr "%-28s %-8d %-10b %-14d %-10.2f\n" name sol.Mpde.Solver.stats.newton_iterations
      sol.Mpde.Solver.stats.converged sol.Mpde.Solver.stats.continuation_steps seconds
  in
  let dc = Circuit.Dcop.solve_exn mna in
  run "warm (DC operating point)" (Some dc) Mpde.Solver.default_options;
  run "cold (zero state)" None Mpde.Solver.default_options;
  run "cold, no continuation" None
    { Mpde.Solver.default_options with allow_continuation = false };
  let qs, qs_seconds, _ = time (fun () -> Mpde.Solver.quasi_static_start ~seed:dc sys grid) in
  pr "%-28s %-8s %-10s %-14s %-10.2f\n" "(quasi-static seed build)" "-" "-" "-" qs_seconds;
  run "quasi-static start" (Some qs) Mpde.Solver.default_options;
  pr "(paper: 26 NR iterations from a good starting guess; continuation\n\
     \ reliably obtained solutions when plain Newton failed)\n"

(* ------------------------------------------------------------------ *)
(* ABL-LIN: direct sparse LU vs GMRES + block sweep                    *)
(* ------------------------------------------------------------------ *)

let ablation_linear_solvers () =
  header "ABL-LIN - MPDE linear solver ablation (direct sparse LU vs GMRES+sweep)";
  let mna, shear = unbalanced_fixture 1e4 in
  pr "%-10s %-16s %-16s %-14s\n" "grid" "direct (s)" "gmres-sweep (s)" "gmres iters";
  List.iter
    (fun (n1, n2) ->
      let run solver =
        let options = { Mpde.Solver.default_options with linear_solver = solver } in
        time (fun () -> Mpde.Solver.solve_mna ~options ~shear ~n1 ~n2 mna)
      in
      let _, direct_t, _ = run Mpde.Solver.Direct in
      let sol_g, gmres_t, _ = run Mpde.Solver.Gmres_sweep in
      pr "%-10s %-16.4f %-16.4f %-14d\n"
        (Printf.sprintf "%dx%d" n1 n2)
        direct_t gmres_t sol_g.Mpde.Solver.stats.linear_iterations)
    [ (16, 8); (32, 16); (40, 30); (64, 32) ]

(* ------------------------------------------------------------------ *)
(* ABL-DISC: backward vs central-in-t1 accuracy                        *)
(* ------------------------------------------------------------------ *)

let ablation_discretization () =
  header "ABL-DISC - t1 discretization accuracy on a linear two-tone circuit";
  let f1 = 1e6 and fd = 1e3 in
  let r = 1e3 and c = 100e-12 in
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~r ~c
      ~drive:(W.sum (W.sine ~amplitude:1.0 ~freq:f1 ()) (W.sine ~amplitude:1.0 ~freq:(f1 +. fd) ()))
      ()
  in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let analytic f t =
    let w = 2.0 *. Float.pi *. f in
    let wrc = w *. r *. c in
    1.0 /. sqrt (1.0 +. (wrc *. wrc)) *. sin ((w *. t) -. atan wrc)
  in
  let err scheme n1 =
    let options =
      { Mpde.Solver.default_options with scheme; linear_solver = Mpde.Solver.Direct }
    in
    let sol = Mpde.Solver.solve_mna ~options ~shear ~n1 ~n2:8 mna in
    let vout = Mpde.Extract.surface_of_node sol mna "out" in
    let _, series =
      Mpde.Extract.diagonal sol ~values:vout ~t_start:0.0 ~t_stop:(1.0 /. f1) ~samples:64
    in
    let worst = ref 0.0 in
    Array.iteri
      (fun k s ->
        let t = 1.0 /. f1 *. float_of_int k /. 63.0 in
        let e = analytic f1 t +. analytic (f1 +. fd) t in
        worst := Float.max !worst (Float.abs (s -. e)))
      series;
    !worst
  in
  pr "%-8s %-18s %-18s\n" "n1" "backward max-err" "central-t1 max-err";
  List.iter
    (fun n1 ->
      pr "%-8d %-18.5f %-18.5f\n" n1 (err Mpde.Assemble.Backward n1)
        (err Mpde.Assemble.Central_t1 n1))
    [ 16; 32; 64; 128 ];
  pr "(backward is 1st order, central is 2nd order in h1; backward remains the\n\
     \ default for its robustness on switching waveforms)\n"

(* ------------------------------------------------------------------ *)
(* ABL-HB: harmonics needed vs waveform sharpness                      *)
(* ------------------------------------------------------------------ *)

(* Evaluate the trigonometric interpolant through periodic samples at
   normalized position u — exact for HB solutions, so grids of
   different sizes can be compared without interpolation bias. *)
let trig_eval samples u =
  let h = Numeric.Fft.real_harmonics samples in
  let acc = ref (fst h.(0)) in
  for k = 1 to Array.length h - 1 do
    let amplitude, phase = h.(k) in
    acc := !acc +. (amplitude *. cos ((2.0 *. Float.pi *. float_of_int k *. u) +. phase))
  done;
  !acc

let ablation_hb_sharpness () =
  header "ABL-HB - harmonic-balance cost vs switching sharpness (paper §1 motivation)";
  let freq = 1e3 in
  pr "%-22s %-22s\n" "drive rise (fraction)" "harmonics for <5% error";
  List.iter
    (fun rise_frac ->
      let { Circuits.mna; _ } =
        Circuits.diode_rectifier ~load_r:10e3 ~load_c:5e-9
          ~drive:
            (W.pulse ~rise_frac ~fall_frac:rise_frac ~low:(-1.0) ~high:1.5 ~duty:0.5
               ~freq ())
          ()
      in
      let dc = Circuit.Dcop.solve_exn mna in
      let dae = Circuit.Mna.dae mna in
      let idx = Circuit.Mna.node_index mna "out" in
      let waveform harmonics =
        let r = Steady.Hb.solve ~x_init:dc ~dae ~period:(1.0 /. freq) ~harmonics () in
        if not r.Steady.Solution.converged then None
        else Some (Array.map (fun x -> x.(idx)) r.Steady.Solution.trace.Numeric.Integrator.states)
      in
      match waveform 40 with
      | None -> pr "%-22.3f (reference did not converge)\n" rise_frac
      | Some reference ->
          let swing =
            Array.fold_left Float.max neg_infinity reference
            -. Array.fold_left Float.min infinity reference
          in
          let err w =
            let worst = ref 0.0 in
            for k = 0 to 99 do
              let u = float_of_int k /. 100.0 in
              worst := Float.max !worst (Float.abs (trig_eval w u -. trig_eval reference u))
            done;
            !worst /. Float.max swing 1e-12
          in
          let needed =
            List.find_opt
              (fun h -> match waveform h with Some w -> err w < 0.05 | None -> false)
              [ 2; 3; 4; 6; 8; 12; 16; 24; 32 ]
          in
          pr "%-22.3f %-22s\n" rise_frac
            (match needed with Some h -> string_of_int h | None -> ">32"))
    [ 0.25; 0.15; 0.1; 0.05; 0.01 ];
  pr "(sharper switching needs steeply more harmonics, while the time-domain MPDE\n\
     \ grid cost is set only by the time resolution of the edge)\n"

(* ------------------------------------------------------------------ *)
(* Conversion gain / distortion table (paper §3 pure-tone figures)      *)
(* ------------------------------------------------------------------ *)

let gain_distortion_table () =
  header "GAIN - down-conversion gain and distortion from pure-tone excitation";
  let f_lo = 450e6 and fd = 15e3 in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:((2.0 *. f_lo) +. fd) () in
  pr "%-12s %-14s %-12s %-10s\n" "RF ampl (V)" "baseband (V)" "gain (dB)" "THD (%)";
  List.iter
    (fun rf_amplitude ->
      let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_amplitude ~rf_signal () in
      let sol = Mpde.Solver.solve_mna ~shear ~n1:40 ~n2:30 mna in
      let nodes = Circuits.balanced_mixer_nodes in
      let diff =
        Mpde.Extract.differential_surface sol mna nodes.Circuits.out_plus
          nodes.Circuits.out_minus
      in
      let amp = Mpde.Extract.t2_harmonic_amplitude ~values:diff ~harmonic:1 in
      pr "%-12.3f %-14.5f %-12.2f %-10.2f\n" rf_amplitude amp
        (Mpde.Extract.conversion_gain_db ~values:diff ~rf_amplitude ~harmonic:1)
        (100.0 *. Mpde.Extract.thd ~values:diff ()))
    [ 0.01; 0.05; 0.1; 0.2; 0.4 ]

(* ------------------------------------------------------------------ *)
(* bechamel micro-timings                                              *)
(* ------------------------------------------------------------------ *)

let bechamel_timings () =
  header "TIMINGS - bechamel estimates (monotonic clock, OLS)";
  let open Bechamel in
  let mixer_test =
    Test.make ~name:"fig3_6_mixer_mpde_40x30"
      (Staged.stage (fun () -> ignore (solve_balanced_mixer ())))
  in
  let fig12_test =
    let f1 = 1e9 in
    let fd = 10e3 in
    let z = ideal_product_waveform f1 (f1 -. fd) in
    let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in
    Test.make ~name:"fig1_2_surface_eval_1024pts"
      (Staged.stage (fun () ->
           let acc = ref 0.0 in
           for i = 0 to 31 do
             for j = 0 to 31 do
               let t1 = float_of_int i *. 1e-9 /. 32.0 in
               let t2 = float_of_int j /. fd /. 32.0 in
               acc := !acc +. W.eval_with ~phase_of:(Mpde.Shear.phase shear ~t1 ~t2) z
             done
           done;
           ignore !acc))
  in
  let mna, shear = unbalanced_fixture 1e4 in
  let mpde_small_test =
    Test.make ~name:"speedup_mpde_disparity100"
      (Staged.stage (fun () -> ignore (Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna)))
  in
  let dc = Circuit.Dcop.solve_exn mna in
  let shooting_test =
    Test.make ~name:"speedup_shooting_disparity100"
      (Staged.stage (fun () ->
           ignore
             (Steady.Shooting.solve ~steps_per_period:1000 ~x0:dc
                ~dae:(Circuit.Mna.dae mna) ~period:1e-4 ())))
  in
  let splu_test =
    (* The MPDE Jacobian factor/solve kernel in isolation. *)
    let sys = Mpde.Assemble.of_mna ~shear mna in
    let grid = Mpde.Grid.make ~shear ~n1:32 ~n2:16 in
    let n = sys.Mpde.Assemble.size in
    let big = Array.make (Mpde.Grid.points grid * n) 0.01 in
    let jacs = Mpde.Assemble.point_jacobians sys grid big in
    let jac = Mpde.Assemble.jacobian_csr Mpde.Assemble.Backward grid ~size:n ~jacs in
    let rhs = Array.init (Mpde.Grid.points grid * n) (fun i -> sin (float_of_int i)) in
    Test.make ~name:"abl_lin_splu_factor_solve"
      (Staged.stage (fun () -> ignore (Sparse.Splu.solve (Sparse.Splu.factor jac) rhs)))
  in
  let fft_test =
    let x = Linalg.Cvec.init 4096 (fun k -> { Complex.re = sin (0.1 *. float_of_int k); im = 0.0 }) in
    Test.make ~name:"substrate_fft_4096" (Staged.stage (fun () -> ignore (Numeric.Fft.fft x)))
  in
  let tests =
    Test.make_grouped ~name:"rfss"
      [ fig12_test; mixer_test; mpde_small_test; shooting_test; splu_test; fft_test ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
  in
  let raw = benchmark tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  pr "%-40s %-16s %-8s\n" "benchmark" "time/run" "r²";
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan in
      let human t =
        if t > 1e9 then Printf.sprintf "%.3f s" (t /. 1e9)
        else if t > 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
        else if t > 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
        else Printf.sprintf "%.1f ns" t
      in
      pr "%-40s %-16s %-8.4f\n" name (human estimate) r2)
    results

(* ------------------------------------------------------------------ *)
(* BENCH_mpde.json - machine-readable results for CI tracking          *)
(* ------------------------------------------------------------------ *)

let git_revision () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

(* SWEEP: the parallel executor on a fixed 8-job MPDE disparity sweep
   (unbalanced mixer, LO 1 MHz) at 1, 2, and 4 domains. Wall times feed
   the perf gate (sweep.wall_1 lower-better, sweep.speedup_2
   higher-better); the waveform hashes must agree across domain counts
   or the "deterministic" flag — and the gate's convergence check —
   trips. *)

let sweep_disparities = [| 20.; 40.; 60.; 80.; 100.; 150.; 200.; 300. |]

let sweep_jobs () =
  Array.map
    (fun disparity ->
      let f_lo = 1e6 in
      let fd = f_lo /. disparity in
      let problem =
        Engine.Problem.make
          ~label:(Printf.sprintf "disparity=%g" disparity)
          ~output:"out" ~f_fast:f_lo ~fd
          (fun () ->
            Circuits.unbalanced_mixer ~f_lo
              ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
              ~rf_amplitude:0.05 ())
      in
      Engine.Sweep.job
        ~options:{ Engine.Options.default with n1 = 32; n2 = 16 }
        ~kind:Engine.Mpde problem)
    sweep_disparities

let sweep_signature outcomes =
  Array.map
    (fun (o : Engine.Sweep.outcome) ->
      match o.Engine.Sweep.result with
      | Error _ -> None
      | Ok r ->
          Some
            ( r.Engine.Result.converged,
              Array.map Int64.bits_of_float
                r.Engine.Result.waveform.Engine.Result.values ))
    outcomes

(* Sum one gauge over a sweep's per-job telemetry summaries (0 where a
   job recorded nothing). *)
let sweep_gauge_sum name outcomes =
  Array.fold_left
    (fun acc (o : Engine.Sweep.outcome) ->
      match o.Engine.Sweep.result with
      | Ok r -> (
          match r.Engine.Result.telemetry with
          | Some s -> (
              match List.assoc_opt name s.Telemetry.Summary.gauges with
              | Some v -> acc +. v
              | None -> acc)
          | None -> acc)
      | Error _ -> acc)
    0.0 outcomes

(* The 12-field tuple this used to return was unreadable at the use
   site; named fields also let the JSON writer below pick values
   without positional bookkeeping. *)
type sweep_results = {
  sw_jobs : int;
  sw_wall_1 : float;
  sw_wall_2 : float;
  sw_wall_4 : float;
  sw_speedup_2 : float;
  sw_speedup_4 : float;
  sw_utilization_2 : float;
  sw_utilization_4 : float;
  sw_deterministic : bool;
  sw_ok : bool;
  sw_alloc_minor : float;
  sw_alloc_major : float;
  sw_retries : int;
  sw_degraded_jobs : int;
}

(* Fraction of the sweep's OS domains x wall actually spent inside
   jobs: sum of per-job wall over the theoretical capacity. [domains]
   lanes run on [min domains cores] OS domains (Engine.Pool), so the
   capacity counts those, not the lanes. Low utilization means domains
   sat idle (load imbalance, spawn overhead). *)
let domain_utilization ~domains ~wall outcomes =
  let busy =
    Array.fold_left
      (fun acc (o : Engine.Sweep.outcome) -> acc +. o.Engine.Sweep.wall_seconds)
      0.0 outcomes
  in
  let hosts = min domains (Domain.recommended_domain_count ()) in
  if wall > 0.0 && hosts > 0 then busy /. (float_of_int hosts *. wall)
  else 0.0

let sweep_bench () =
  (* The host's core count belongs in the headline: every speedup below
     is meaningless without it (a 1-core runner can't speed anything
     up, and the gate skips the speedup floors there). *)
  header
    (Printf.sprintf
       "SWEEP - 8-job MPDE disparity sweep on 1/2/4 domains (Engine.Sweep) \
        [host cores: %d]"
       (Engine.Sweep.default_domains ()));
  pr "recommended domains on this machine: %d\n"
    (Engine.Sweep.default_domains ());
  let run ?(telemetry = false) domains =
    let outcomes, wall, _ =
      time (fun () ->
          (* Retry armed so the bench measures the instrumented path the
             CLI runs; the gate asserts it never fires on a clean sweep. *)
          Engine.Sweep.run ~domains ~per_job_telemetry:telemetry
            ~retry:Resilience.Retry.default (sweep_jobs ()))
    in
    let converged =
      Array.for_all
        (fun (o : Engine.Sweep.outcome) ->
          match o.Engine.Sweep.result with
          | Ok r -> r.Engine.Result.converged
          | Error _ -> false)
        outcomes
    in
    pr "domains=%d  wall=%.4fs  all-converged=%b\n" domains wall converged;
    (outcomes, wall, converged)
  in
  (* Per-job allocation attribution rides on the serial run: telemetry
     recorders are per job there, and the serial wall is the one the
     speedups are measured against in both runs. *)
  let o1, wall_1, ok1 = run ~telemetry:true 1 in
  let o2, wall_2, ok2 = run 2 in
  let o4, wall_4, ok4 = run 4 in
  let deterministic =
    sweep_signature o1 = sweep_signature o2
    && sweep_signature o1 = sweep_signature o4
  in
  let speedup_2 = wall_1 /. Float.max wall_2 1e-12 in
  let speedup_4 = wall_1 /. Float.max wall_4 1e-12 in
  let utilization_2 = domain_utilization ~domains:2 ~wall:wall_2 o2 in
  let utilization_4 = domain_utilization ~domains:4 ~wall:wall_4 o4 in
  let alloc_minor = sweep_gauge_sum "alloc.job.minor_words" o1 in
  let alloc_major = sweep_gauge_sum "alloc.job.major_words" o1 in
  let retries =
    Array.fold_left
      (fun acc o -> acc + Engine.Sweep.retries o)
      0
      (Array.concat [ o1; o2; o4 ])
  in
  let degraded_jobs =
    Array.fold_left
      (fun acc (o : Engine.Sweep.outcome) ->
        if o.Engine.Sweep.degraded then acc + 1 else acc)
      0
      (Array.concat [ o1; o2; o4 ])
  in
  pr "speedup: x%.2f on 2 domains, x%.2f on 4; deterministic=%b\n" speedup_2
    speedup_4 deterministic;
  pr "domain utilization: %.0f%% on 2 domains, %.0f%% on 4\n"
    (100.0 *. utilization_2) (100.0 *. utilization_4);
  pr "allocation (serial run): %.3gM minor words, %.3gM major words\n"
    (alloc_minor /. 1e6) (alloc_major /. 1e6);
  pr "resilience: %d retries, %d degraded jobs across all runs\n" retries
    degraded_jobs;
  {
    sw_jobs = Array.length sweep_disparities;
    sw_wall_1 = wall_1;
    sw_wall_2 = wall_2;
    sw_wall_4 = wall_4;
    sw_speedup_2 = speedup_2;
    sw_speedup_4 = speedup_4;
    sw_utilization_2 = utilization_2;
    sw_utilization_4 = utilization_4;
    sw_deterministic = deterministic;
    sw_ok = ok1 && ok2 && ok4;
    sw_alloc_minor = alloc_minor;
    sw_alloc_major = alloc_major;
    sw_retries = retries;
    sw_degraded_jobs = degraded_jobs;
  }

(* KERNEL micro-benchmarks: the two hot kernels the mixer solve leans
   on, timed in isolation so a regression is attributable to the kernel
   rather than to solver iteration counts. [spmv_mflops] applies the
   assembled mixer-grid Jacobian through {!Sparse.Csr.mul_vec_into};
   [block_solve_cols_per_s] applies one n=13 dense LU factor to a
   30-column panel through {!Linalg.Lu.solve_many_into},
   the dense multi-RHS kernel (the sweep preconditioner itself
   substitutes over compact per-point factors). Both report the best
   of three timed batches. *)
type kernel_results = { spmv_mflops : float; block_solve_cols_per_s : float }

let kernel_bench () =
  header "KERNEL - hot-kernel micro-benchmarks (CSR SpMV, blocked panel solve)";
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let grid = Mpde.Grid.make ~shear ~n1:40 ~n2:30 in
  let n = sys.Mpde.Assemble.size in
  let np = Mpde.Grid.points grid in
  let big = np * n in
  let state = Array.init big (fun i -> 0.01 *. sin (float_of_int i)) in
  let jacs = Mpde.Assemble.point_jacobians sys grid state in
  let jac = Mpde.Assemble.jacobian_csr Mpde.Assemble.Backward grid ~size:n ~jacs in
  (* SpMV: y <- A x on the big mixer Jacobian, batched to ~tens of ms. *)
  let x = Array.init big (fun i -> sin (float_of_int i)) and y = Array.make big 0.0 in
  let spmv_reps = 400 in
  let _, spmv_t =
    best_of_3 (fun () ->
        for _ = 1 to spmv_reps do
          Sparse.Csr.mul_vec_into jac x y
        done)
  in
  let nnz = Sparse.Csr.nnz jac in
  let spmv_mflops =
    2.0 *. float_of_int nnz *. float_of_int spmv_reps
    /. Float.max spmv_t 1e-12 /. 1e6
  in
  (* Panel solve: one dense factor applied to a 30-column panel. *)
  let cols = 30 in
  let d = Linalg.Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Linalg.Mat.set d i j (if i = j then 4.0 else 1.0 /. float_of_int (1 + abs (i - j)))
    done
  done;
  let f = Linalg.Lu.factor d in
  let pb = Array.init (cols * n) (fun i -> cos (float_of_int i)) in
  let px = Array.make (cols * n) 0.0 in
  let panel_reps = 4000 in
  let _, panel_t =
    best_of_3 (fun () ->
        for _ = 1 to panel_reps do
          Linalg.Lu.solve_many_into f ~cols pb px
        done)
  in
  let block_solve_cols_per_s =
    float_of_int (cols * panel_reps) /. Float.max panel_t 1e-12
  in
  pr "spmv (big mixer Jacobian, %d nnz): %.1f MFLOP/s\n" nnz spmv_mflops;
  pr "blocked panel solve (n=%d, %d cols): %.3g columns/s\n" n cols
    block_solve_cols_per_s;
  { spmv_mflops; block_solve_cols_per_s }

(* SHOOTING: the disparity sweep's heaviest shooting job (unbalanced
   mixer, LO 1 MHz, disparity 756.5, 10 backward-Euler steps per LO
   cycle across one difference period) through [Engine.run], untraced.
   Minor words per integrated step is a function of the code path
   alone, so it is the figure the gate watches; the wall is reported
   as the best of three runs. *)
type shooting_results = {
  sh_wall : float;
  sh_steps : int;  (** steps per period *)
  sh_newton : int;  (** outer shooting iterations *)
  sh_minor_words : float;  (** whole job *)
  sh_words_per_step : float;  (** whole job over every integrated step *)
}

let shooting_bench () =
  header "SHOOTING - d = 756.5 unbalanced-mixer job (Engine.run, untraced)";
  let disparity = 756.5 and f_lo = 1e6 in
  let fd = f_lo /. disparity in
  let steps = int_of_float (Float.round (10.0 *. disparity)) in
  let problem =
    Engine.Problem.make ~label:"shooting d=756.5" ~period:Engine.Problem.Difference_tone
      ~output:"out" ~f_fast:f_lo ~fd (fun () ->
        Circuits.unbalanced_mixer ~f_lo
          ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
          ~rf_amplitude:0.05 ())
  in
  let engine =
    Engine.make
      ~options:{ Engine.Options.default with steps_per_period = steps }
      Engine.Shooting
  in
  let run () =
    let w0 = Gc.minor_words () in
    let r, wall, _ = time (fun () -> Engine.run problem engine) in
    (r, wall, Gc.minor_words () -. w0)
  in
  let r, wall, words = run () in
  let best_wall = ref wall in
  for _ = 1 to 2 do
    let _, w, _ = run () in
    best_wall := Float.min !best_wall w
  done;
  let wall = !best_wall in
  if not r.Engine.Result.converged then failwith "shooting bench: d = 756.5 job did not converge";
  (* A converged shooting solve integrates the period once per outer
     iteration plus once more to confirm the defect. *)
  let integrated = steps * (r.Engine.Result.newton_iterations + 1) in
  let per_step = words /. float_of_int integrated in
  pr "steps/period=%d  newton=%d  wall=%.4fs  minor words=%.3gM (%.0f per step)\n" steps
    r.Engine.Result.newton_iterations wall (words /. 1e6) per_step;
  {
    sh_wall = wall;
    sh_steps = steps;
    sh_newton = r.Engine.Result.newton_iterations;
    sh_minor_words = words;
    sh_words_per_step = per_step;
  }

(* Serve section: exercise the persistent solve service in-process —
   the same job twice (the second must replay from the result cache)
   plus a cache-near frequency point (warm-started from the first
   solve's converged surface) — and record the cache and warm-start
   counters so CI can track service behaviour across commits. *)
let serve_bench () =
  let fixture =
    match Serve.Catalog.find "rc" with Ok f -> f | Error e -> failwith e
  in
  let options =
    { Engine.Options.default with Engine.Options.n1 = 24; n2 = 16 }
  in
  let job fd =
    {
      Serve.Protocol.fixture;
      engine = Engine.Mpde;
      f_fast = fixture.Serve.Catalog.default_fast;
      fd;
      options;
      wall_seconds = None;
      max_newton_budget = None;
      warm = true;
    }
  in
  let jobs = Serve.Jobs.create ~workers:1 () in
  let drain h =
    let poll = Serve.Jobs.poll h in
    let rec go () =
      match poll () with
      | `Data _ -> go ()
      | `Wait ->
          Unix.sleepf 0.005;
          go ()
      | `Eof -> ()
    in
    go ()
  in
  let fd = fixture.Serve.Catalog.default_fd in
  drain (Serve.Jobs.submit jobs (job fd));
  drain (Serve.Jobs.submit jobs (job fd));
  drain (Serve.Jobs.submit jobs (job (fd *. 1.02)));
  let stats = Serve.Cache.stats (Serve.Jobs.cache jobs) in
  let warm_starts = Serve.Jobs.warm_starts jobs in
  Serve.Jobs.stop jobs;
  (stats, warm_starts)

(* How much two solves slow each other on this host: the wall time of
   two processes each running one fixed job at once (twelve 40x30
   balanced-mixer solves, long enough to average over scheduling
   noise) over the wall time of one process running it alone, best of
   three each, the two measurements alternating. 1.0 means the copies
   ran independently, 2.0 that they ran as if on one core. It runs first, while no other
   domain is running ([Unix.fork] refuses otherwise). Recorded ungated
   next to [cores]: it tells a host limit from a program regression in
   the speedup figures, and excuses neither. *)
let parallel_capacity_2 () =
  let copies k =
    flush_all ();
    let t0 = Telemetry.Clock.wall () in
    let child () =
      match
        for _ = 1 to 12 do
          ignore (solve_balanced_mixer ())
        done
      with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 1
    in
    let pids = List.init k (fun _ -> match Unix.fork () with 0 -> child () | pid -> pid) in
    List.iter
      (fun pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "parallel_capacity_2: a probe process failed")
      pids;
    Telemetry.Clock.wall () -. t0
  in
  (* One and two copies alternate, so a change in the host's load
     reaches both. *)
  let one = ref infinity and two = ref infinity in
  for _ = 1 to 3 do
    one := Float.min !one (copies 1);
    two := Float.min !two (copies 2)
  done;
  let one = !one and two = !two in
  pr "host capacity: one copy %.4fs, two concurrent copies %.4fs, ratio %.2f\n" one two
    (two /. one);
  two /. one

(* One telemetry-instrumented solve of the paper's balanced mixer plus
   an MPDE-vs-shooting comparison, dumped as BENCH_mpde.json so CI can
   archive and diff solver performance across commits. *)
let bench_json ?(file = "BENCH_mpde.json") () =
  header (Printf.sprintf "JSON - writing %s" file);
  let capacity_2 = parallel_capacity_2 () in
  (* GC attribution across everything the bench runs (mixer solve,
     repeats, sweep on 1/2/4 domains): armed before the first solve so
     worker-domain rings are covered from spawn. *)
  let gc_monitor = Telemetry.Runtime.start () in
  Telemetry.enable ();
  let (sol, _, _), wall, cpu = time solve_balanced_mixer in
  let telemetry =
    Option.map Telemetry.Summary.of_snapshot (Telemetry.snapshot ())
  in
  Telemetry.disable ();
  (* The solve is deterministic, so min-of-3 wall is the honest number:
     repeats (untraced, so the counters above stay single-run) strip
     scheduler noise that a single sample on a busy runner would bake
     into the baseline. The first repeat also counts the solve's
     minor-heap words, a function of the code path alone. *)
  let wall, cpu, mixer_words =
    let w = ref wall and c = ref cpu and words = ref 0.0 in
    for k = 1 to 2 do
      let w0 = Gc.minor_words () in
      let _, wi, ci = time solve_balanced_mixer in
      if k = 1 then words := Gc.minor_words () -. w0;
      if wi < !w then begin
        w := wi;
        c := ci
      end
    done;
    (!w, !c, !words)
  in
  let stats = sol.Mpde.Solver.stats in
  let words_per_newton = mixer_words /. float_of_int stats.Mpde.Solver.newton_iterations in
  (* Block factorizations of the traced solve, on either path. *)
  let block_factors =
    match telemetry with
    | Some summary ->
        let counter name =
          Option.value ~default:0 (List.assoc_opt name summary.Telemetry.Summary.counters)
        in
        counter "mpde.precond.refactors" + counter "lu.dense_factors"
    | None -> 0
  in
  let disparity = 100.0 in
  let fd = 1e6 /. disparity in
  let mna, shear = unbalanced_fixture fd in
  let _, mpde_t = best_of_3 (fun () -> Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna) in
  let dc = Circuit.Dcop.solve_exn mna in
  let _, shoot_t =
    best_of_3 (fun () ->
        Steady.Shooting.solve
          ~steps_per_period:(int_of_float (10.0 *. disparity))
          ~x0:dc ~dae:(Circuit.Mna.dae mna) ~period:(1.0 /. fd) ())
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"benchmark\":\"mpde\"";
  (match git_revision () with
  | Some rev -> Buffer.add_string buf (Printf.sprintf ",\"revision\":%s" (Telemetry.Json.quote rev))
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf ",\"host\":{\"cores\":%d,\"parallel_capacity_2\":%.3f}"
       (Engine.Sweep.default_domains ())
       capacity_2);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"mixer\":{\"circuit\":\"balanced-mixer\",\"n1\":40,\"n2\":30,\"converged\":%b,\"strategy\":%s,\"newton_iterations\":%d,\"gmres_iterations\":%d,\"residual_norm\":%.6e,\"wall_seconds\":%.6f,\"cpu_seconds\":%.6f,\"minor_words_per_newton\":%.1f,\"block_factors\":%d"
       stats.Mpde.Solver.converged
       (Telemetry.Json.quote stats.Mpde.Solver.strategy)
       stats.Mpde.Solver.newton_iterations stats.Mpde.Solver.linear_iterations
       stats.Mpde.Solver.residual_norm wall cpu words_per_newton block_factors);
  (match telemetry with
  | Some summary ->
      Buffer.add_string buf ",\"telemetry\":";
      Telemetry.Summary.add_json buf summary
  | None -> ());
  Buffer.add_string buf "}";
  Buffer.add_string buf
    (Printf.sprintf
       ",\"speedup\":{\"disparity\":%.0f,\"mpde_wall_seconds\":%.6f,\"shooting_wall_seconds\":%.6f,\"ratio\":%.3f}"
       disparity mpde_t shoot_t
       (shoot_t /. Float.max mpde_t 1e-12));
  let sh = shooting_bench () in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"shooting\":{\"disparity\":756.5,\"steps\":%d,\"newton_iterations\":%d,\"wall_seconds\":%.6f,\"minor_words\":%.0f,\"minor_words_per_step\":%.1f}"
       sh.sh_steps sh.sh_newton sh.sh_wall sh.sh_minor_words sh.sh_words_per_step);
  let kr = kernel_bench () in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"kernel\":{\"spmv_mflops\":%.3f,\"block_solve_cols_per_s\":%.1f}"
       kr.spmv_mflops kr.block_solve_cols_per_s);
  let sw = sweep_bench () in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"sweep\":{\"jobs\":%d,\"cores\":%d,\"converged\":%b,\"wall_1\":%.6f,\"wall_2\":%.6f,\"wall_4\":%.6f,\"speedup_2\":%.3f,\"speedup_4\":%.3f,\"domain_utilization_2\":%.4f,\"domain_utilization_4\":%.4f,\"deterministic\":%b,\"alloc_job_minor_words_1\":%.0f,\"alloc_job_major_words_1\":%.0f,\"retries\":%d,\"degraded_jobs\":%d}"
       sw.sw_jobs
       (Engine.Sweep.default_domains ())
       sw.sw_ok sw.sw_wall_1 sw.sw_wall_2 sw.sw_wall_4 sw.sw_speedup_2
       sw.sw_speedup_4 sw.sw_utilization_2 sw.sw_utilization_4
       sw.sw_deterministic sw.sw_alloc_minor sw.sw_alloc_major sw.sw_retries
       sw.sw_degraded_jobs);
  (* GC section for the gate: percentiles from the runtime-events
     monitor. A runtime that refused a cursor reports zeros rather than
     dropping the section (a missing watched metric is a gate error). *)
  let gc_mc, gc_ms, gc_p99_minor, gc_p99_major, gc_lost =
    match gc_monitor with
    | None -> (0, 0, 0.0, 0.0, 0)
    | Some m ->
        Telemetry.Runtime.poll m;
        let s = Telemetry.Runtime.stats m in
        Telemetry.Runtime.stop m;
        let p99 (h : Telemetry.histogram) =
          if h.Telemetry.count > 0 then Telemetry.quantile h 0.99 else 0.0
        in
        ( s.Telemetry.Runtime.minor_collections,
          s.Telemetry.Runtime.major_slices,
          p99 s.Telemetry.Runtime.minor_pause,
          p99 s.Telemetry.Runtime.major_pause,
          s.Telemetry.Runtime.lost_events )
  in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"gc\":{\"minor_collections\":%d,\"major_slices\":%d,\"minor_pause_p99\":%.6e,\"major_pause_p99\":%.6e,\"lost_events\":%d}"
       gc_mc gc_ms gc_p99_minor gc_p99_major gc_lost);
  let sv_stats, sv_warm = serve_bench () in
  Buffer.add_string buf
    (Printf.sprintf
       ",\"serve\":{\"cache_hits\":%d,\"cache_misses\":%d,\"cache_evictions\":%d,\"warm_starts\":%d}"
       sv_stats.Serve.Cache.hits sv_stats.Serve.Cache.misses
       sv_stats.Serve.Cache.evictions sv_warm);
  Buffer.add_string buf "}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  pr "mixer: wall=%.3fs cpu=%.3fs newton=%d gmres=%d minor words/newton=%.0f\n" wall cpu
    stats.Mpde.Solver.newton_iterations stats.Mpde.Solver.linear_iterations words_per_newton;
  pr "speedup at disparity %.0f: mpde=%.4fs shooting=%.4fs ratio=%.1fx\n" disparity
    mpde_t shoot_t
    (shoot_t /. Float.max mpde_t 1e-12);
  pr "serve: cache hits=%d misses=%d warm_starts=%d\n" sv_stats.Serve.Cache.hits
    sv_stats.Serve.Cache.misses sv_warm;
  pr "wrote %s\n" file

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let series () =
    fig1_fig2 ();
    ignore (fig3_to_fig6 ());
    speedup_tables ();
    newton_table ();
    gain_distortion_table ();
    ablation_linear_solvers ();
    ablation_discretization ();
    ablation_hb_sharpness ()
  in
  match mode with
  | "series" ->
      series ();
      bench_json ()
  | "timings" -> bechamel_timings ()
  | "json" -> bench_json ()
  | _ ->
      series ();
      bench_json ();
      bechamel_timings ()
