(* Tests for the core contribution: sheared difference-frequency time
   scales, the bi-periodic MPDE grid solver, extraction, and the
   envelope-following mode. *)

module W = Circuit.Waveform
module Shear = Mpde.Shear
module Grid = Mpde.Grid

let pi = 4.0 *. atan 1.0

(* ---------- Shear ---------- *)

let shear_1g = Shear.make ~fast_freq:1e9 ~slow_freq:10e3

let test_shear_accessors () =
  Alcotest.(check (float 1e-3)) "fast" 1e9 (Shear.fast_freq shear_1g);
  Alcotest.(check (float 1e-9)) "t1 period" 1e-9 (Shear.t1_period shear_1g);
  Alcotest.(check (float 1e-9)) "t2 period" 1e-4 (Shear.t2_period shear_1g)

let test_shear_make_validation () =
  Alcotest.check_raises "slow >= fast"
    (Invalid_argument "Shear.make: need 0 < slow_freq < fast_freq") (fun () ->
      ignore (Shear.make ~fast_freq:1.0 ~slow_freq:2.0))

let test_shear_lattice_basic () =
  Alcotest.(check (pair int int)) "f1" (1, 0) (Support.shear_lattice shear_1g 1e9);
  Alcotest.(check (pair int int)) "f1 - fd" (1, -1) (Support.shear_lattice shear_1g (1e9 -. 10e3));
  Alcotest.(check (pair int int)) "2f1 + fd" (2, 1) (Support.shear_lattice shear_1g (2e9 +. 10e3));
  Alcotest.(check (pair int int)) "pure fd" (0, 1) (Support.shear_lattice shear_1g 10e3);
  Alcotest.(check (pair int int)) "dc" (0, 0) (Support.shear_lattice shear_1g 0.0)

let test_shear_off_lattice () =
  match Support.shear_lattice shear_1g (1e9 +. 3333.0) with
  | exception Shear.Off_lattice _ -> ()
  | _ -> Alcotest.fail "expected Off_lattice"

let test_shear_phase_diagonal_identity () =
  (* The defining property: phase(t, t) of frequency f equals f·t. *)
  List.iter
    (fun f ->
      List.iter
        (fun t ->
          let p = Shear.phase shear_1g ~t1:t ~t2:t f in
          Alcotest.(check bool)
            (Printf.sprintf "diagonal at f=%g t=%g" f t)
            true
            (Float.abs (p -. (f *. t)) <= 1e-6 *. Float.max 1.0 (Float.abs (f *. t))))
        [ 0.0; 1.234e-9; 5.0e-5 ])
    [ 1e9; 1e9 +. 10e3; 2e9 -. 20e3; 10e3; 30e3 ]

let test_shear_phase_periodicity () =
  (* Sheared phase advances by an integer when t1 advances by T1 or t2
     by Td — the bi-periodicity that makes the grid representation
     consistent. *)
  let f = 2e9 +. 10e3 in
  let t1 = 0.3e-9 and t2 = 2.7e-5 in
  let p0 = Shear.phase shear_1g ~t1 ~t2 f in
  let p1 = Shear.phase shear_1g ~t1:(t1 +. 1e-9) ~t2 f in
  let p2 = Shear.phase shear_1g ~t1 ~t2:(t2 +. 1e-4) f in
  let is_integer x = Float.abs (x -. Float.round x) < 1e-6 in
  Alcotest.(check bool) "T1 shift" true (is_integer (p1 -. p0));
  Alcotest.(check bool) "Td shift" true (is_integer (p2 -. p0))

(* Each frequency's lattice resolved once: (m·f1)·t1 + (k·fs)·t2 from
   [Shear.scales] is [Shear.phase], bit for bit; an off-lattice
   frequency reads nan. *)
let test_shear_resolve () =
  let on = [ 1e9; 2e9 +. 10e3; 1e9 -. 10e3; 0.0; 3e9 ] and off = 1e9 +. 3.3e3 in
  let fast, slow = Shear.scales shear_1g (Array.of_list (off :: on)) in
  List.iteri
    (fun k f ->
      List.iter
        (fun (t1, t2) ->
          let a = (fast.(k + 1) *. t1) +. (slow.(k + 1) *. t2)
          and b = Shear.phase shear_1g ~t1 ~t2 f in
          if Int64.bits_of_float a <> Int64.bits_of_float b then
            Alcotest.failf "f=%g: resolved %h, phase %h" f a b)
        [ (0.0, 0.0); (0.3e-9, 2.7e-5); (7.77e-10, 9.1e-5); (1.5e-9, 1.3e-4) ])
    on;
  Alcotest.(check bool) "off the lattice" true (Float.is_nan fast.(0) && Float.is_nan slow.(0))

let test_shear_unsheared_assignment () =
  (* Unsheared: fast-multiple frequencies ride on t1, others on t2. *)
  let p_fast = Shear.phase_unsheared shear_1g ~t1:1.0e-9 ~t2:0.0 1e9 in
  Alcotest.(check (float 1e-9)) "fast on t1" 1.0 p_fast;
  let f2 = 1e9 -. 10e3 in
  let p_slow = Shear.phase_unsheared shear_1g ~t1:0.0 ~t2:1.0e-9 f2 in
  Alcotest.(check (float 1e-6)) "slow on t2" (f2 *. 1.0e-9) p_slow

let test_shear_validate_sources () =
  let nl = Circuit.Netlist.create () in
  Circuit.Netlist.vsource nl "v1" "a" "0" (W.sine ~amplitude:1.0 ~freq:1e9 ());
  Circuit.Netlist.resistor nl "r1" "a" "0" 1.0;
  let m = Circuit.Mna.build nl in
  (match Shear.validate_sources shear_1g m with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "on-lattice source rejected");
  let nl2 = Circuit.Netlist.create () in
  (* 1 GHz + 5432.1 Hz is not representable as m·1 GHz + k·10 kHz. *)
  Circuit.Netlist.vsource nl2 "v1" "a" "0" (W.sine ~amplitude:1.0 ~freq:(1e9 +. 5432.1) ());
  Circuit.Netlist.resistor nl2 "r1" "a" "0" 1.0;
  let m2 = Circuit.Mna.build nl2 in
  match Shear.validate_sources shear_1g m2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "off-lattice source accepted"

(* ---------- Grid ---------- *)

let test_grid_geometry () =
  let g = Grid.make ~shear:shear_1g ~n1:10 ~n2:5 in
  Alcotest.(check int) "points" 50 (Grid.points g);
  Alcotest.(check (float 1e-20)) "h1" 1e-10 g.Grid.h1;
  Alcotest.(check (float 1e-15)) "h2" 2e-5 g.Grid.h2;
  Alcotest.(check (float 1e-20)) "t1 coordinate" 3e-10 (Grid.t1_of g 3);
  Alcotest.(check (float 1e-15)) "t2 coordinate" 4e-5 (Grid.t2_of g 2)

let test_grid_wrapping () =
  let g = Grid.make ~shear:shear_1g ~n1:10 ~n2:5 in
  Alcotest.(check int) "wrap1 negative" (Grid.point_index g 9 0) (Grid.point_index g (-1) 0);
  Alcotest.(check int) "wrap2 over" (Grid.point_index g 0 0) (Grid.point_index g 0 5);
  Alcotest.(check int) "index" 13 (Grid.point_index g 3 1);
  Alcotest.(check int) "index wrapped" (Grid.point_index g 3 1) (Grid.point_index g 13 6)

let test_grid_validation () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Grid.make: dimensions must be at least 2") (fun () ->
      ignore (Grid.make ~shear:shear_1g ~n1:1 ~n2:5))

(* ---------- Assemble ---------- *)

(* A linear scalar DAE solved on the grid must reproduce the analytic
   quasi-periodic response. Build a one-node RC with two-tone drive. *)
let two_tone_rc ~f1 ~fd =
  let f2 = f1 +. fd in
  Circuits.rc_lowpass ~r:1e3 ~c:(100e-12)
    ~drive:
      (W.sum (W.sine ~amplitude:1.0 ~freq:f1 ()) (W.sine ~amplitude:1.0 ~freq:f2 ()))
    ()

let test_assemble_sources_diagonal_consistency () =
  (* b̂ on the grid must equal the one-time b along the diagonal at grid
     coincidence points: when t1 = t2 = t, both evaluate b(t). *)
  let f1 = 1e6 and fd = 1e3 in
  let { Circuits.mna; _ } = two_tone_rc ~f1 ~fd in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let dae = Circuit.Mna.dae mna in
  let b = Array.make dae.Numeric.Dae.size 0.0 in
  List.iter
    (fun t ->
      let b_hat = Mpde.Assemble.source_at sys ~t1:t ~t2:t in
      dae.Numeric.Dae.source_into t b;
      Alcotest.(check bool)
        (Printf.sprintf "diagonal at t=%g" t)
        true
        (Support.vec_approx_equal ~tol:1e-9 b_hat b))
    [ 0.0; 1.7e-7; 4.2e-6; 9.9e-4 ]

(* A DAE along a path carries that path's excitation and no other: the
   balanced mixer's fast column at a fixed t2 writes b̂(t1, t2) from its
   [source_into], bit for bit, and not the circuit's one-time b(t1). *)
let test_to_dae_source_follows_path () =
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  let shear = Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let t2 = 0.37 *. Shear.t2_period shear in
  let dae =
    Mpde.Assemble.to_dae sys ~source:(fun t1 -> Mpde.Assemble.source_at sys ~t1 ~t2)
  in
  let b = Array.make dae.Numeric.Dae.size nan in
  List.iter
    (fun k ->
      let t1 = float_of_int k /. 7.0 *. Shear.t1_period shear in
      dae.Numeric.Dae.source_into t1 b;
      Array.iteri
        (fun v expected ->
          Alcotest.(check int64)
            (Printf.sprintf "b at t1 = %d/7 T1, entry %d" k v)
            (Int64.bits_of_float expected) (Int64.bits_of_float b.(v)))
        (Mpde.Assemble.source_at sys ~t1 ~t2))
    [ 0; 1; 2; 3; 5 ]

let test_assemble_residual_zero_for_exact_solution () =
  (* For C ẋ + x/R = b with b̂ constant, x̂ = R·b̂ is an exact grid
     solution (all differences vanish). *)
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~r:2e3 ~c:1e-12 ~drive:(W.dc 1.0) ()
  in
  let shear = Shear.make ~fast_freq:1e6 ~slow_freq:1e3 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let g = Grid.make ~shear ~n1:4 ~n2:4 in
  let dc = Circuit.Dcop.solve_exn mna in
  let n = Circuit.Mna.size mna in
  let big = Array.make (Grid.points g * n) 0.0 in
  for p = 0 to Grid.points g - 1 do
    Array.blit dc 0 big (p * n) n
  done;
  let sources = Mpde.Assemble.sources_on_grid sys g in
  let r = Mpde.Assemble.residual Mpde.Assemble.Backward sys g ~sources big in
  Alcotest.(check bool) "dc solution is exact" true (Linalg.Vec.norm_inf r < 1e-9)

let test_assemble_jacobian_matches_fd () =
  (* Full finite-difference validation of the global MPDE Jacobian on a
     small nonlinear grid problem, for every scheme (the spectral axes
     need an odd number of points). *)
  let f1 = 1e6 and fd = 1e4 in
  let { Circuits.mna; _ } =
    Circuits.envelope_detector ~f1 ~f2:(f1 +. fd) ~amplitude:0.5 ()
  in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let n = sys.Mpde.Assemble.size in
  List.iter
    (fun (name, scheme, n2) ->
      let g = Grid.make ~shear ~n1:3 ~n2 in
      let big_n = Grid.points g * n in
      let big = Array.init big_n (fun i -> 0.05 *. sin (float_of_int i)) in
      let sources = Mpde.Assemble.sources_on_grid sys g in
      let jacs = Mpde.Assemble.point_jacobians sys g big in
      let jac = Mpde.Assemble.jacobian_csr scheme g ~size:n ~jacs in
      let r0 = Mpde.Assemble.residual scheme sys g ~sources big in
      let h = 1e-7 in
      for j = 0 to big_n - 1 do
        let xj = Array.copy big in
        xj.(j) <- xj.(j) +. h;
        let rj = Mpde.Assemble.residual scheme sys g ~sources xj in
        for i = 0 to big_n - 1 do
          let numeric = (rj.(i) -. r0.(i)) /. h in
          let stamped = Sparse.Csr.get jac i j in
          let scale = Float.max 1.0 (Float.abs stamped) in
          if Float.abs (numeric -. stamped) > 1e-3 *. scale then
            Alcotest.failf "%s: jacobian mismatch at (%d,%d): fd=%.6g stamped=%.6g" name i j
              numeric stamped
        done
      done)
    Mpde.Assemble.
      [
        ("backward", Backward, 2);
        ("central-t1", Central_t1, 2);
        ("spectral-t1", Spectral_t1, 2);
        ("spectral-both", Spectral_both, 3);
      ]

(* ---------- Solver ---------- *)

let solve_linear_two_tone ?options () =
  let f1 = 1e6 and fd = 1e3 in
  let { Circuits.mna; _ } = two_tone_rc ~f1 ~fd in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  (Mpde.Solver.solve_mna ?options ~shear ~n1:32 ~n2:16 mna, mna)

let linear_rc_response f t =
  let r = 1e3 and c = 100e-12 in
  let w = 2.0 *. pi *. f in
  let gain = 1.0 /. sqrt (1.0 +. ((w *. r *. c) ** 2.0)) in
  gain *. sin ((w *. t) -. atan (w *. r *. c))

let test_solver_linear_two_tone () =
  let sol, mna = solve_linear_two_tone () in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
  (* linear problem: one Newton step *)
  Alcotest.(check bool) "few newton iterations" true
    (sol.Mpde.Solver.stats.newton_iterations <= 2);
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  let f1 = 1e6 and fd = 1e3 in
  let _, series =
    Mpde.Extract.diagonal sol ~values:vout ~t_start:0.0 ~t_stop:(2.0 /. f1) ~samples:50
  in
  let times = Array.init 50 (fun k -> 2.0 /. f1 *. float_of_int k /. 49.0) in
  let worst = ref 0.0 in
  Array.iteri
    (fun k t ->
      let expected = linear_rc_response f1 t +. linear_rc_response (f1 +. fd) t in
      worst := Float.max !worst (Float.abs (series.(k) -. expected)))
    times;
  (* first-order BE on a 32-point fast grid: ~10% phase error expected *)
  Alcotest.(check bool) "matches superposition" true (!worst < 0.15)

let test_solver_direct_equals_gmres () =
  let opts solver = { Mpde.Solver.default_options with linear_solver = solver } in
  let sol_d, _ = solve_linear_two_tone ~options:(opts Mpde.Solver.Direct) () in
  let sol_g, _ = solve_linear_two_tone ~options:(opts Mpde.Solver.Gmres_sweep) () in
  Alcotest.(check bool) "both converged" true
    (sol_d.Mpde.Solver.stats.converged && sol_g.Mpde.Solver.stats.converged);
  Alcotest.(check bool) "same solution" true
    (Linalg.Kernel.nrm2 (Linalg.Vec.sub sol_d.Mpde.Solver.big_x sol_g.Mpde.Solver.big_x) < 1e-5)

let test_solver_residual_check () =
  let sol, _ = solve_linear_two_tone () in
  Alcotest.(check bool) "stored solution satisfies the equations" true
    (Mpde.Solver.residual_norm_check sol < 1e-7)

let test_solver_ideal_mixer_gain () =
  (* The paper's §2 ideal mixing: product of unit cosines has a
     difference tone of amplitude exactly 1/2. *)
  let f1 = 1e9 and fd = 10e3 in
  let lo = W.cosine ~amplitude:1.0 ~freq:f1 () in
  let rf = W.cosine ~amplitude:1.0 ~freq:(f1 -. fd) () in
  let { Circuits.mna; _ } = Circuits.ideal_mixer ~lo ~rf () in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:24 mna in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  Alcotest.(check (float 2e-3)) "difference tone = 1/2" 0.5
    (Mpde.Extract.t2_harmonic_amplitude ~values:vout ~harmonic:1);
  Alcotest.(check (float 0.05)) "conversion gain −6 dB" (-6.02)
    (Mpde.Extract.conversion_gain_db ~values:vout ~rf_amplitude:1.0 ~harmonic:1)

let test_solver_off_lattice_raises () =
  let nl = Circuit.Netlist.create () in
  (* 1 MHz + 432.1 Hz is off the (1 MHz, 1 kHz) lattice. *)
  Circuit.Netlist.vsource nl "v1" "a" "0" (W.sine ~amplitude:1.0 ~freq:(1e6 +. 432.1) ());
  Circuit.Netlist.resistor nl "r1" "a" "0" 1e3;
  let mna = Circuit.Mna.build nl in
  let shear = Shear.make ~fast_freq:1e6 ~slow_freq:1e3 in
  match Mpde.Solver.solve_mna ~shear ~n1:4 ~n2:4 mna with
  | exception Shear.Off_lattice _ -> ()
  | _ -> Alcotest.fail "expected Off_lattice"

let test_solver_seed_validation () =
  let f1 = 1e6 and fd = 1e3 in
  let { Circuits.mna; _ } = two_tone_rc ~f1 ~fd in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let g = Grid.make ~shear ~n1:4 ~n2:4 in
  Alcotest.check_raises "bad seed" (Invalid_argument "Mpde.Solver.solve: bad seed size")
    (fun () -> ignore (Mpde.Solver.solve ~seed:[| 1.0 |] sys g))

let test_solver_nonlinear_detector () =
  (* Envelope detector: the output's difference-frequency envelope must
     pulse at fd (a strong nonlinear down-conversion). *)
  let f1 = 1e6 and fd = 2e4 in
  let { Circuits.mna; _ } = Circuits.envelope_detector ~f1 ~f2:(f1 +. fd) ~amplitude:1.0 () in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:24 mna in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  let beat = Mpde.Extract.t2_harmonic_amplitude ~values:vout ~harmonic:1 in
  Alcotest.(check bool) "beat envelope present" true (beat > 0.1)

let test_solver_grid_refinement_converges () =
  (* Halving both grid steps should reduce the error vs the analytic
     linear solution (first-order convergence). *)
  let f1 = 1e6 and fd = 1e3 in
  let { Circuits.mna; _ } = two_tone_rc ~f1 ~fd in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let err n1 =
    let sol = Mpde.Solver.solve_mna ~shear ~n1 ~n2:8 mna in
    let vout = Mpde.Extract.surface_of_node sol mna "out" in
    let _, series =
      Mpde.Extract.diagonal sol ~values:vout ~t_start:0.0 ~t_stop:(1.0 /. f1) ~samples:40
    in
    let worst = ref 0.0 in
    Array.iteri
      (fun k s ->
        let t = 1.0 /. f1 *. float_of_int k /. 39.0 in
        let expected = linear_rc_response f1 t +. linear_rc_response (f1 +. fd) t in
        worst := Float.max !worst (Float.abs (s -. expected)))
      series;
    !worst
  in
  let e16 = err 16 and e64 = err 64 in
  Alcotest.(check bool) "refinement helps" true (e64 < e16 /. 2.0)

let test_solver_central_scheme_more_accurate () =
  let f1 = 1e6 and fd = 1e3 in
  let { Circuits.mna; _ } = two_tone_rc ~f1 ~fd in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let err scheme =
    let options =
      { Mpde.Solver.default_options with scheme; linear_solver = Mpde.Solver.Direct }
    in
    let sol = Mpde.Solver.solve_mna ~options ~shear ~n1:24 ~n2:8 mna in
    Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
    let vout = Mpde.Extract.surface_of_node sol mna "out" in
    let _, series =
      Mpde.Extract.diagonal sol ~values:vout ~t_start:0.0 ~t_stop:(1.0 /. f1) ~samples:40
    in
    let worst = ref 0.0 in
    Array.iteri
      (fun k s ->
        let t = 1.0 /. f1 *. float_of_int k /. 39.0 in
        let expected = linear_rc_response f1 t +. linear_rc_response (f1 +. fd) t in
        worst := Float.max !worst (Float.abs (s -. expected)))
      series;
    !worst
  in
  Alcotest.(check bool) "central-in-t1 beats backward" true
    (err Mpde.Assemble.Central_t1 < err Mpde.Assemble.Backward)

(* ---------- Extract ---------- *)

let test_extract_surface_dims () =
  let sol, mna = solve_linear_two_tone () in
  let s = Mpde.Extract.surface_of_node sol mna "out" in
  Alcotest.(check int) "n1 rows" 32 (Array.length s);
  Alcotest.(check int) "n2 cols" 16 (Array.length s.(0))

let test_extract_envelope_modes () =
  let sol, mna = solve_linear_two_tone () in
  let s = Mpde.Extract.surface_of_node sol mna "out" in
  let mean = Mpde.Extract.envelope ~mode:Mpde.Extract.Mean_t1 sol ~values:s in
  let peak = Mpde.Extract.envelope ~mode:Mpde.Extract.Peak_t1 sol ~values:s in
  let fixed = Mpde.Extract.envelope ~mode:(Mpde.Extract.At_t1 0.25) sol ~values:s in
  Alcotest.(check int) "lengths" 16 (Array.length mean);
  Array.iteri
    (fun j p -> Alcotest.(check bool) "peak ≥ mean" true (p >= mean.(j) -. 1e-12))
    peak;
  Alcotest.(check int) "fixed length" 16 (Array.length fixed)

let test_extract_envelope_times () =
  let sol, _ = solve_linear_two_tone () in
  let times = Mpde.Extract.envelope_times sol in
  Alcotest.(check (float 1e-12)) "first" 0.0 times.(0);
  Alcotest.(check bool) "monotone" true (times.(1) > times.(0))

let test_extract_differential_surface () =
  let sol, mna = solve_linear_two_tone () in
  let d = Mpde.Extract.differential_surface sol mna "in" "out" in
  let si = Mpde.Extract.surface_of_node sol mna "in" in
  let so = Mpde.Extract.surface_of_node sol mna "out" in
  Alcotest.(check (float 1e-12)) "difference" (si.(3).(2) -. so.(3).(2)) d.(3).(2)

let test_extract_mixing_spectrum_ideal_mixer () =
  (* Product of two unit cosines through the IF filter: the dominant
     mixing products must be the difference tone at (k1, k2) = (0, 1)
     with amplitude ~1/2 and the (heavily filtered) sum tone at (2, 1). *)
  let f1 = 1e9 and fd = 10e3 in
  let lo = W.cosine ~amplitude:1.0 ~freq:f1 () in
  let rf = W.cosine ~amplitude:1.0 ~freq:(f1 -. fd) () in
  let { Circuits.mna; _ } = Circuits.ideal_mixer ~lo ~rf () in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:24 mna in
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  let products = Mpde.Extract.mixing_spectrum sol ~values:vout () in
  (match products with
  | top :: _ ->
      Alcotest.(check int) "dominant k1" 0 top.Mpde.Extract.k1;
      Alcotest.(check int) "dominant k2" (-1) (-(abs top.Mpde.Extract.k2));
      Alcotest.(check bool) "amplitude 1/2" true
        (Float.abs (top.Mpde.Extract.amplitude -. 0.5) < 5e-3);
      Alcotest.(check bool) "frequency is fd" true
        (Float.abs (Float.abs top.Mpde.Extract.frequency -. fd) < 1.0)
  | [] -> Alcotest.fail "empty spectrum");
  (* The sum tone (2, ±1) exists but is filtered well below the
     difference tone. *)
  let sum_tone =
    List.find_opt (fun p -> p.Mpde.Extract.k1 = 2) products
  in
  (match sum_tone with
  | Some p ->
      Alcotest.(check bool) "sum tone filtered" true (p.Mpde.Extract.amplitude < 0.05)
  | None -> ());
  Alcotest.(check int) "top limit respected" 12 (List.length products)

let test_extract_mixing_spectrum_parseval_ish () =
  (* The sum of squared product amplitudes accounts for (almost) all of
     the surface's AC power. *)
  let sol, mna = solve_linear_two_tone () in
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  let products = Mpde.Extract.mixing_spectrum sol ~values:vout ~top:1000 () in
  let power_spec =
    List.fold_left
      (fun acc p ->
        if p.Mpde.Extract.k1 = 0 && p.Mpde.Extract.k2 = 0 then acc
        else acc +. (0.5 *. p.Mpde.Extract.amplitude *. p.Mpde.Extract.amplitude))
      0.0 products
  in
  let mean = ref 0.0 and count = ref 0 in
  Array.iter (Array.iter (fun v -> mean := !mean +. v; incr count)) vout;
  let mean = !mean /. float_of_int !count in
  let power_grid = ref 0.0 in
  Array.iter
    (Array.iter (fun v -> power_grid := !power_grid +. ((v -. mean) ** 2.0)))
    vout;
  let power_grid = !power_grid /. float_of_int !count in
  Alcotest.(check bool)
    (Printf.sprintf "spectral power ≈ grid power (%.5f vs %.5f)" power_spec power_grid)
    true
    (Float.abs (power_spec -. power_grid) < 0.02 *. power_grid)

let test_extract_thd_pure_tone () =
  (* The ideal mixer's baseband is a pure difference tone → tiny THD. *)
  let f1 = 1e9 and fd = 10e3 in
  let lo = W.cosine ~amplitude:1.0 ~freq:f1 () in
  let rf = W.cosine ~amplitude:1.0 ~freq:(f1 -. fd) () in
  let { Circuits.mna; _ } = Circuits.ideal_mixer ~lo ~rf () in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:24 mna in
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  Alcotest.(check bool) "thd small" true (Mpde.Extract.thd ~values:vout () < 0.02)

(* ---------- Envelope following ---------- *)

let test_envelope_follow_constant_drive () =
  (* With no slow variation the marched columns must stay put. *)
  let f1 = 1e6 in
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~drive:(W.sine ~amplitude:1.0 ~freq:f1 ()) ()
  in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:1e3 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let result =
    Mpde.Envelope_follow.run ~system:sys ~shear ~n1:16 ~t2_stop:5e-4 ~steps:5 ()
  in
  Alcotest.(check bool) "converged" true result.Mpde.Envelope_follow.converged;
  let c0 = result.Mpde.Envelope_follow.columns.(0) in
  let c5 = result.Mpde.Envelope_follow.columns.(5) in
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Linalg.Kernel.nrm2 (Linalg.Vec.sub x c5.(i)))) c0;
  Alcotest.(check bool) "stationary" true (!worst < 1e-6)

(* The envelope march and [Solver.solve_mna] discretize t2 alike
   (backward Euler, [steps_per_period] steps per slow period) and t1
   alike ([Backward], 32 points), so a marched slow period that has
   settled solves the very equations of the bi-periodic surface, and
   only two things separate the two answers:
   - the march's start-up transient: gone after the first period on
     these circuits (the gap reads the same at periods 2, 3 and 6);
   - the two Newton stops, each at a residual below [tol = 1e-8] A.
     Through a node's resistance to ground R (the detector's 10 kΩ
     load; 1 kΩ on rc and ideal-mixer) a stop moves a node by at most
     tol·R <= 1e-4 V, which is below 1e-4 of every swing here (1.0 to
     3.2 V). Newton stops after a quadratically converging step, far
     below tol, so the two stops do not add up to that worst case.
   Measured gaps, as a fraction of the swing: 1.8e-6 (detector),
   1.9e-7 (rc), 1.1e-11 (ideal-mixer). Comparing against the surface
   shifted by one t2 step instead reads 0.18 of the detector's swing. *)
let envelope_gap name =
  let c = Result.get_ok (Serve.Catalog.find name) in
  let f1 = c.Serve.Catalog.default_fast and fd = c.Serve.Catalog.default_fd in
  let { Circuits.mna; _ } = c.Serve.Catalog.build ~f_fast:f1 ~fd in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let seed = Circuit.Dcop.solve_exn mna in
  let out = Circuit.Mna.node_index mna c.Serve.Catalog.output_node in
  let t2p = Shear.t2_period shear in
  let steps_per_period = 24 in
  let result =
    Mpde.Envelope_follow.run ~seed ~system:sys ~shear ~n1:32
      ~t2_stop:(3.0 *. t2p)
      ~steps:(3 * steps_per_period) ()
  in
  Alcotest.(check bool) (name ^ " converged") true result.Mpde.Envelope_follow.converged;
  let env =
    Mpde.Envelope_follow.envelope_of result ~unknown:out ~mode:Mpde.Extract.Mean_t1
  in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:steps_per_period mna in
  let vout = Mpde.Extract.surface_of_node sol mna c.Serve.Catalog.output_node in
  let steady = Mpde.Extract.envelope sol ~values:vout in
  (* Compare the third marched period with the surface pointwise, and
     its baseband envelope with the surface's. *)
  let worst = ref 0.0 and lo = ref infinity and hi = ref neg_infinity in
  for j = 0 to steps_per_period - 1 do
    let s = (2 * steps_per_period) + j in
    worst := Float.max !worst (Float.abs (env.(s) -. steady.(j)));
    Array.iteri
      (fun i x ->
        let v = vout.(i).(j) in
        lo := Float.min !lo v;
        hi := Float.max !hi v;
        worst := Float.max !worst (Float.abs (x.(out) -. v)))
      result.Mpde.Envelope_follow.columns.(s)
  done;
  (!worst, !hi -. !lo)

let test_envelope_follow_matches_biperiodic () =
  List.iter
    (fun name ->
      let worst, swing = envelope_gap name in
      if not (worst < 1e-4 *. swing) then
        Alcotest.failf "%s: marched period differs from the bi-periodic surface by %.3e \
                        (%.3e of the swing %.3e)"
          name worst (worst /. swing) swing)
    [ "detector"; "rc"; "ideal-mixer" ]

let test_envelope_follow_validation () =
  let f1 = 1e6 in
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass ~drive:(W.sine ~amplitude:1.0 ~freq:f1 ()) ()
  in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:1e3 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  Alcotest.check_raises "steps" (Invalid_argument "Envelope_follow.run: steps must be positive")
    (fun () ->
      ignore (Mpde.Envelope_follow.run ~system:sys ~shear ~n1:8 ~t2_stop:1e-4 ~steps:0 ()))

(* ---------- workspace refresh / preconditioner lagging ---------- *)

let mixer_fixture () =
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:((2.0 *. f_lo) +. fd) () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  (mna, Shear.make ~fast_freq:f_lo ~slow_freq:fd)

let float_array_bits_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

let test_assemble_ws_bitwise_refresh () =
  (* The symbolic-once / numeric-refresh workspace must reproduce the
     from-scratch assembly bitwise — pattern and values — at every
     iterate of a real Newton descent on the mixer, not just at the
     seed where the workspace froze its patterns. *)
  let mna, shear = mixer_fixture () in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let g = Grid.make ~shear ~n1:10 ~n2:6 in
  let n = sys.Mpde.Assemble.size in
  let np = Grid.points g in
  let sources = Mpde.Assemble.sources_on_grid sys g in
  let ws = Mpde.Assemble.workspace Mpde.Assemble.Backward sys g in
  let x = Array.make (np * n) 0.0 in
  for iter = 1 to 3 do
    ignore (Mpde.Assemble.point_jacobians_ws ws x);
    let j_ws = Mpde.Assemble.jacobian_ws ws in
    let jacs = Mpde.Assemble.point_jacobians sys g x in
    let j_fresh =
      Mpde.Assemble.jacobian_csr Mpde.Assemble.Backward g ~size:n ~jacs
    in
    Alcotest.(check bool)
      (Printf.sprintf "pattern identical (iter %d)" iter)
      true
      (j_ws.Sparse.Csr.row_ptr = j_fresh.Sparse.Csr.row_ptr
      && j_ws.Sparse.Csr.col_idx = j_fresh.Sparse.Csr.col_idx);
    Alcotest.(check bool)
      (Printf.sprintf "values bitwise identical (iter %d)" iter)
      true
      (float_array_bits_equal j_ws.Sparse.Csr.values j_fresh.Sparse.Csr.values);
    (* Advance with a true Newton step (off the from-scratch path) so
       the next refresh sees genuinely moved Jacobian values. *)
    let r = Mpde.Assemble.residual Mpde.Assemble.Backward sys g ~sources x in
    let dx = Sparse.Splu.solve (Sparse.Splu.factor j_fresh) r in
    Array.iteri (fun i d -> x.(i) <- x.(i) -. d) dx
  done

(* [a] and [b] hold the same n×n block bit for bit (an entry one
   pattern lacks reads +0). *)
let same_block what p (a : Sparse.Csr.t) (b : Sparse.Csr.t) =
  let n = a.Sparse.Csr.rows in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let va = Sparse.Csr.get a i j and vb = Sparse.Csr.get b i j in
      if Int64.bits_of_float va <> Int64.bits_of_float vb then
        Alcotest.failf "%s, point %d, entry (%d,%d): first build %h, fresh %h" what p i j va vb
    done
  done

let test_first_jacobians_equal_fresh () =
  (* The first [point_jacobians_ws] of a workspace builds point 0 and
     refreshes every other point on a copy of its pattern. On a
     converged, non-uniform mixer surface each point must still hold a
     fresh build's values bit for bit. *)
  let mna, shear = mixer_fixture () in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.Mpde.Solver.converged;
  let sys = sol.Mpde.Solver.system and g = sol.Mpde.Solver.grid in
  let n = sys.Mpde.Assemble.size in
  let first_build what x =
    let ws = Mpde.Assemble.workspace Mpde.Assemble.Backward sys g in
    let jacs = Mpde.Assemble.point_jacobians_ws ws x in
    Array.iteri
      (fun p (gp, cp) ->
        let gf, cf =
          sys.Mpde.Assemble.dae.Numeric.Dae.jacobians (Mpde.Assemble.state_of ~size:n x p)
        in
        same_block (what ^ " G") p gp gf;
        same_block (what ^ " C") p cp cf)
      jacs;
    (* The points that kept point 0's pattern, and all the others. *)
    let g0 = fst jacs.(0) in
    let shared = ref 0 in
    for p = 1 to Array.length jacs - 1 do
      if (fst jacs.(p)).Sparse.Csr.col_idx == g0.Sparse.Csr.col_idx then incr shared
    done;
    (!shared, Array.length jacs - 1)
  in
  let shared, _ = first_build "converged surface" sol.Mpde.Solver.big_x in
  Alcotest.(check bool) "points refreshed on point 0's pattern" true (shared > 0);
  (* Forced drift: at the zero state point 0's MOSFETs are cut off, so
     its G pattern has no slot for the transconductance stamps the
     conducting points carry; those points take the rebuild path. *)
  let x = Array.copy sol.Mpde.Solver.big_x in
  Array.fill x 0 n 0.0;
  let shared, others = first_build "drifted surface" x in
  Alcotest.(check bool) "a drifted point is rebuilt on its own pattern" true (shared < others)

(* A solve's Jacobians are the G and C its residual loaded at the same
   iterate; at any other iterate they are loaded afresh. Either way each
   point holds a fresh build's values bit for bit. *)
let test_residual_loads_jacobians () =
  let mna, shear = mixer_fixture () in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna in
  let sys = sol.Mpde.Solver.system and g = sol.Mpde.Solver.grid in
  let n = sys.Mpde.Assemble.size in
  let sources = Mpde.Assemble.sources_on_grid sys g in
  let x = sol.Mpde.Solver.big_x in
  let x' = Array.mapi (fun i v -> v +. (1e-3 *. float_of_int (i mod 7))) x in
  let r = Array.make (Array.length x) 0.0 in
  let ws = Mpde.Assemble.workspace Mpde.Assemble.Backward sys g in
  let check what x =
    Array.iteri
      (fun p (gp, cp) ->
        let gf, cf =
          sys.Mpde.Assemble.dae.Numeric.Dae.jacobians (Mpde.Assemble.state_of ~size:n x p)
        in
        same_block (what ^ " G") p gp gf;
        same_block (what ^ " C") p cp cf)
      (Mpde.Assemble.point_jacobians_ws ws x)
  in
  Mpde.Assemble.residual_into ws ~sources x r;
  check "after the residual at x" x;
  Mpde.Assemble.residual_into ws ~sources x' r;
  check "at x after a residual at x'" x;
  check "at x' after Jacobians at x" x';
  (* A short r or sources (a coarser grid's, say) is refused, not read
     or written past its end. *)
  let short = Array.make (Array.length x - n) 0.0 in
  let mismatch = Invalid_argument "Mpde.Assemble.residual: dimension mismatch" in
  Alcotest.check_raises "short r" mismatch (fun () ->
      Mpde.Assemble.residual_into ws ~sources x short);
  Alcotest.check_raises "short sources" mismatch (fun () ->
      Mpde.Assemble.residual_into ws ~sources:short x r);
  Alcotest.check_raises "short sources, one-shot" mismatch (fun () ->
      ignore (Mpde.Assemble.residual Mpde.Assemble.Backward sys g ~sources:short x))

(* A workspace rebound to a new job equals a fresh one: every point back
   on the new point 0's pattern, whatever the last job left (here the
   zero state's cut-off pattern and the points rebuilt off it), and the
   same residual, per-point Jacobians and big Jacobian, bit for bit. It
   keeps its per-point buffers, so a rebound job allocates less. *)
let test_assemble_rebind_equals_fresh () =
  let mna, shear = mixer_fixture () in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna in
  let sys = sol.Mpde.Solver.system and g = sol.Mpde.Solver.grid in
  let sources = Mpde.Assemble.sources_on_grid sys g in
  let x = sol.Mpde.Solver.big_x in
  let zero = Array.make (Array.length x) 0.0 in
  let r = Array.make (Array.length x) 0.0 and r' = Array.make (Array.length x) 0.0 in
  let used = Mpde.Assemble.workspace Mpde.Assemble.Backward sys g in
  Mpde.Assemble.residual_into used ~sources zero r;
  ignore (Mpde.Assemble.point_jacobians_ws used zero);
  ignore (Mpde.Assemble.point_jacobians_ws used x);
  ignore (Mpde.Assemble.jacobian_ws used);
  let job ws =
    let words = Gc.minor_words () in
    let ws = ws () in
    Mpde.Assemble.residual_into ws ~sources x r;
    let jacs = Mpde.Assemble.point_jacobians_ws ws x in
    (ws, jacs, Gc.minor_words () -. words)
  in
  let rebound, jr, words_rebound =
    job (fun () -> Mpde.Assemble.rebind used Mpde.Assemble.Backward sys g)
  in
  Array.blit r 0 r' 0 (Array.length r);
  let fresh, jf, words_fresh =
    job (fun () -> Mpde.Assemble.workspace Mpde.Assemble.Backward sys g)
  in
  Alcotest.(check bool) "rebind keeps the workspace" true (rebound == used);
  Alcotest.(check bool) "residual bitwise" true (float_array_bits_equal r r');
  let same_pattern (a : Sparse.Csr.t) (b : Sparse.Csr.t) =
    a.Sparse.Csr.row_ptr = b.Sparse.Csr.row_ptr && a.Sparse.Csr.col_idx = b.Sparse.Csr.col_idx
  in
  Array.iteri
    (fun p (gr, cr) ->
      let gf, cf = jf.(p) in
      if not (same_pattern gr gf && same_pattern cr cf) then
        Alcotest.failf "point %d: pattern differs from a fresh workspace's" p;
      same_block "rebound G" p gr gf;
      same_block "rebound C" p cr cf)
    jr;
  let jb = Mpde.Assemble.jacobian_ws rebound and jb' = Mpde.Assemble.jacobian_ws fresh in
  Alcotest.(check bool) "big Jacobian bitwise" true
    (same_pattern jb jb' && float_array_bits_equal jb.Sparse.Csr.values jb'.Sparse.Csr.values);
  if not (words_rebound < words_fresh) then
    Alcotest.failf "rebound job %.0f words, fresh %.0f" words_rebound words_fresh

(* The paper's 40x30 balanced-mixer solve through [Engine.run]: 5 Newton
   iterates at about 68 k minor words each (the whole run over its
   Newton count: the DC seed, the solve and the waveform metrics).
   Before the device models wrote into a caller buffer, the first
   Jacobian build refreshed copies of point 0's pattern and the
   finiteness check lost its per-row closures, the same run took about
   1.12 M words per Newton iterate (5.61 M in all). *)
let newton_word_budget = 100_000.0

let test_newton_word_budget () =
  let c = Result.get_ok (Serve.Catalog.find "balanced-mixer") in
  let problem =
    Serve.Catalog.problem_of c ~f_fast:c.Serve.Catalog.default_fast
      ~fd:c.Serve.Catalog.default_fd
  in
  let engine =
    Engine.make ~options:{ Engine.Options.default with n1 = 40; n2 = 30 } Engine.Mpde
  in
  let w0 = Gc.minor_words () in
  let r = Engine.run problem engine in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "converged" true r.Engine.Result.converged;
  let per_newton = words /. float_of_int r.Engine.Result.newton_iterations in
  if per_newton > newton_word_budget then
    Alcotest.failf "%.0f words per Newton iterate, budget %.0f" per_newton newton_word_budget

(* The backward scheme written out by hand, as it was before the
   schemes became operator pairs: the residual
   ((q − q_{i−1,j})/h1) + ((q − q_{i,j−1})/h2) + f − b, and the stamp
   t2 (C_p/h2, −C_{i,j−1}/h2), then G_p, then t1 (C_p/h1, −C_{i−1,j}/h1).
   The generic stencil walk must reproduce both bitwise. *)
let backward_reference_residual sys (g : Grid.t) ~sources big_x =
  let n = sys.Mpde.Assemble.size and np = Grid.points g in
  let dae = sys.Mpde.Assemble.dae in
  let state p = Mpde.Assemble.state_of ~size:n big_x p in
  let qs = Array.init np (fun _ -> Array.make n 0.0) in
  let r = Array.make (np * n) 0.0 and f = Array.make n 0.0 in
  Array.iteri (fun p q -> Support.eval_qf dae (state p) ~q ~f) qs;
  for p = 0 to np - 1 do
    let i = p mod g.Grid.n1 and j = p / g.Grid.n1 in
    Support.eval_qf dae (state p) ~q:(Array.make n 0.0) ~f;
    let q = qs.(p) in
    let q_im1 = qs.(Grid.point_index g (i - 1) j) and q_jm1 = qs.(Grid.point_index g i (j - 1)) in
    for v = 0 to n - 1 do
      r.((p * n) + v) <-
        ((q.(v) -. q_im1.(v)) /. g.Grid.h1)
        +. ((q.(v) -. q_jm1.(v)) /. g.Grid.h2)
        +. f.(v) -. sources.((p * n) + v)
    done
  done;
  r

let backward_reference_jacobian (g : Grid.t) ~n ~jacs =
  let big = Grid.points g * n in
  let coo = Sparse.Coo.create ~capacity:(12 * big) big big in
  let add p q scale (m : Sparse.Csr.t) =
    for i = 0 to n - 1 do
      Sparse.Csr.iter_row m i (fun j v ->
          Sparse.Coo.add coo ((p * n) + i) ((q * n) + j) (scale *. v))
    done
  in
  for p = 0 to Grid.points g - 1 do
    let i = p mod g.Grid.n1 and j = p / g.Grid.n1 in
    let gp, cp = jacs.(p) in
    let p_im1 = Grid.point_index g (i - 1) j and p_jm1 = Grid.point_index g i (j - 1) in
    add p p (1.0 /. g.Grid.h2) cp;
    add p p_jm1 (-1.0 /. g.Grid.h2) (snd jacs.(p_jm1));
    add p p 1.0 gp;
    add p p (1.0 /. g.Grid.h1) cp;
    add p p_im1 (-1.0 /. g.Grid.h1) (snd jacs.(p_im1))
  done;
  Sparse.Csr.of_coo coo

(* Three Newton iterates from the replicated DC point: the workspace's
   residual and Jacobian must equal the hand-written reference bit for
   bit at each. *)
let check_backward_reference what mna shear g =
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let n = sys.Mpde.Assemble.size and np = Grid.points g in
  let sources = Mpde.Assemble.sources_on_grid sys g in
  let ws = Mpde.Assemble.workspace Mpde.Assemble.Backward sys g in
  let dc = Circuit.Dcop.solve_exn mna in
  let x = Array.init (np * n) (fun k -> dc.(k mod n)) in
  for iter = 1 to 3 do
    let r = Array.make (np * n) 0.0 in
    Mpde.Assemble.residual_into ws ~sources x r;
    Alcotest.(check bool)
      (Printf.sprintf "%s: residual bitwise (iter %d)" what iter)
      true
      (float_array_bits_equal r (backward_reference_residual sys g ~sources x));
    ignore (Mpde.Assemble.point_jacobians_ws ws x);
    let j_ws = Mpde.Assemble.jacobian_ws ws in
    let j_ref =
      backward_reference_jacobian g ~n ~jacs:(Mpde.Assemble.point_jacobians sys g x)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: jacobian bitwise (iter %d)" what iter)
      true
      (j_ws.Sparse.Csr.row_ptr = j_ref.Sparse.Csr.row_ptr
      && j_ws.Sparse.Csr.col_idx = j_ref.Sparse.Csr.col_idx
      && float_array_bits_equal j_ws.Sparse.Csr.values j_ref.Sparse.Csr.values);
    let dx = Sparse.Splu.solve (Sparse.Splu.factor j_ref) r in
    Array.iteri (fun i d -> x.(i) <- x.(i) -. d) dx
  done;
  Alcotest.(check bool) (what ^ ": iterate finite") true (Array.for_all Float.is_finite x)

let test_assemble_backward_reference () =
  let mna, shear = mixer_fixture () in
  check_backward_reference "mixer" mna shear (Grid.make ~shear ~n1:10 ~n2:6);
  let f1 = 50e3 and fd = 500.0 in
  let drive =
    W.sum (W.sine ~amplitude:10.0 ~freq:f1 ()) (W.sine ~amplitude:2.0 ~freq:(f1 +. fd) ())
  in
  let { Circuits.mna; _ } = Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive () in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  check_backward_reference "bridge" mna shear (Grid.make ~shear ~n1:16 ~n2:6)

let test_solver_sweep_matches_direct_mixer () =
  (* The exact per-iterate sweep preconditioner only steers GMRES; on
     the nonlinear mixer it must land on the sparse-LU Newton surface. *)
  let mna, shear = mixer_fixture () in
  let solve linear_solver =
    Mpde.Solver.solve_mna
      ~options:{ Mpde.Solver.default_options with linear_solver }
      ~shear ~n1:16 ~n2:10 mna
  in
  let direct = solve Mpde.Solver.Direct
  and sweep = solve Mpde.Solver.Gmres_sweep in
  Alcotest.(check bool) "both converged" true
    (direct.Mpde.Solver.stats.converged && sweep.Mpde.Solver.stats.converged);
  Alcotest.(check bool) "both residuals < 1e-7" true
    (Mpde.Solver.residual_norm_check sweep < 1e-7
    && Mpde.Solver.residual_norm_check direct < 1e-7);
  Alcotest.(check bool) "same solution" true
    (Linalg.Kernel.nrm2 (Linalg.Vec.sub direct.Mpde.Solver.big_x sweep.Mpde.Solver.big_x) < 1e-5)

let test_solver_bridge_sweep_guard () =
  (* Hard-switching guard: on the full-wave diode bridge a lagged or
     shared block lets a diode's conductance drift unseen, and GMRES
     stalls or crawls (~150 iterations per Newton step). With exact
     blocks plain Newton converges with ~5 per step. *)
  let f1 = 50e3 and fd = 500.0 in
  let drive =
    W.sum (W.sine ~amplitude:10.0 ~freq:f1 ())
      (W.sine ~amplitude:2.0 ~freq:(f1 +. fd) ())
  in
  let { Circuits.mna; _ } =
    Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive ()
  in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  Telemetry.enable ();
  let sol =
    Fun.protect ~finally:Telemetry.disable @@ fun () ->
    Mpde.Solver.solve_mna ~shear ~n1:16 ~n2:6 mna
  in
  let stats = sol.Mpde.Solver.stats in
  let counter name =
    match sol.Mpde.Solver.report.Resilience.Report.telemetry with
    | None -> Alcotest.fail "telemetry summary missing"
    | Some t ->
        Option.value
          (List.assoc_opt name t.Telemetry.Summary.counters)
          ~default:0
  in
  Alcotest.(check bool) "converged" true stats.Mpde.Solver.converged;
  Alcotest.(check string) "plain newton rung" "newton" stats.Mpde.Solver.strategy;
  Alcotest.(check int) "no gmres stalls" 0 (counter "gmres.stalls");
  Alcotest.(check bool)
    (Printf.sprintf "gmres iterations %d <= 10 x newton %d"
       stats.Mpde.Solver.linear_iterations stats.Mpde.Solver.newton_iterations)
    true
    (stats.Mpde.Solver.linear_iterations
    <= 10 * stats.Mpde.Solver.newton_iterations)

let test_solver_workspace_slot_reuse () =
  (* A retained workspace slot (the per-domain sweep cache) must be
     invisible in the results: the second solve through the slot rebinds
     the retained buffers and must reproduce the fresh-workspace
     surface bitwise. *)
  let mna, shear = mixer_fixture () in
  let solve ?workspace_slot () =
    Mpde.Solver.solve_mna ?workspace_slot ~shear ~n1:16 ~n2:10 mna
  in
  let slot = ref None in
  let first = solve ~workspace_slot:slot () in
  Alcotest.(check bool) "slot populated" true (Option.is_some !slot);
  let second = solve ~workspace_slot:slot () in
  let fresh = solve () in
  Alcotest.(check bool) "all converged" true
    (first.Mpde.Solver.stats.converged && second.Mpde.Solver.stats.converged
   && fresh.Mpde.Solver.stats.converged);
  Alcotest.(check bool) "reused slot bitwise matches fresh" true
    (float_array_bits_equal second.Mpde.Solver.big_x fresh.Mpde.Solver.big_x)

(* ---------- block sweep: compact factors vs a dense reference ---------- *)

module Block_sweep = Mpde.Block_sweep

(* The sweep as the dense kernels compute it: stamp each diagonal block,
   [Lu.factor] it, then in lexicographic point order gather r_p, add the
   lower-neighbour couplings and [Lu.solve_into] — the same arithmetic
   order the compact store must reproduce bit for bit. *)
let dense_sweep scheme (g : Grid.t) ~jacs ~extra_diag (r : float array) =
  let np = Grid.points g in
  let n = (fst jacs.(0)).Sparse.Csr.rows in
  let t1d = scheme = Mpde.Assemble.Backward in
  let inv_h1 = 1.0 /. g.Grid.h1 and inv_h2 = 1.0 /. g.Grid.h2 in
  let scale_c = (if t1d then inv_h1 else 0.0) +. inv_h2 in
  let factor (gp, cp) =
    let d = Linalg.Mat.create n n in
    let a = d.Linalg.Mat.data in
    for i = 0 to n - 1 do
      Sparse.Csr.iter_row cp i (fun j v ->
          a.((i * n) + j) <- a.((i * n) + j) +. (scale_c *. v));
      Sparse.Csr.iter_row gp i (fun j v -> a.((i * n) + j) <- a.((i * n) + j) +. v);
      if extra_diag <> 0.0 then a.((i * n) + i) <- a.((i * n) + i) +. extra_diag
    done;
    Linalg.Lu.factor d
  in
  let factors = Array.map factor jacs in
  let x = Array.make (np * n) 0.0 in
  let b = Array.make n 0.0 and xp = Array.make n 0.0 in
  let couple c inv_h q =
    for row = 0 to n - 1 do
      let s = ref 0.0 in
      Sparse.Csr.iter_row c row (fun j v -> s := !s +. (v *. x.((q * n) + j)));
      b.(row) <- b.(row) +. (inv_h *. !s)
    done
  in
  for p = 0 to np - 1 do
    Array.blit r (p * n) b 0 n;
    let i = p mod g.Grid.n1 and j = p / g.Grid.n1 in
    if t1d && i > 0 then couple (snd jacs.(p - 1)) inv_h1 (p - 1);
    if j > 0 then couple (snd jacs.(p - g.Grid.n1)) inv_h2 (p - g.Grid.n1);
    Linalg.Lu.solve_into factors.(p) b xp;
    Array.blit xp 0 x (p * n) n
  done;
  x

let test_vector len =
  Array.init len (fun k -> sin (0.37 *. float_of_int (k + 1)) +. (0.01 *. float_of_int (k mod 7)))

(* Build [t] with telemetry on; returns the build's factor paths:
   (blocks refactored on a compiled schedule, dense factorizations). *)
let build_counted t scheme g ~jacs ~extra_diag =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  Block_sweep.build t (Mpde.Assemble.operators scheme g) g ~jacs ~extra_diag;
  let counters =
    match Telemetry.snapshot () with Some s -> s.Telemetry.counters | None -> []
  in
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  (count "mpde.precond.refactors", count "lu.dense_factors")

(* Apply the built sweep [t] and compare it bitwise with the dense
   reference on [r]; returns the build's pattern count. *)
let check_applies ?(extra_diag = 0.0) ?(applies = 2) t what scheme g jacs =
  let np = Grid.points g and n = (fst jacs.(0)).Sparse.Csr.rows in
  (* Repeated applies reuse the workspace and must not drift. *)
  for k = 1 to applies do
    let r = Array.map (fun v -> v *. float_of_int k) (test_vector (np * n)) in
    let got =
      Array.copy (Block_sweep.apply t r)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: apply %d bitwise = dense" what k)
      true
      (float_array_bits_equal got (dense_sweep scheme g ~jacs ~extra_diag r))
  done;
  Block_sweep.patterns t

(* Build + apply the compact sweep on a fresh workspace and compare it
   bitwise with the dense reference; returns the build's pattern
   count. *)
let check_sweep_bitwise ?(extra_diag = 0.0) ?(applies = 2) what scheme g jacs =
  let np = Grid.points g and n = (fst jacs.(0)).Sparse.Csr.rows in
  let t = Block_sweep.create ~n ~np in
  Block_sweep.build t (Mpde.Assemble.operators scheme g) g ~jacs ~extra_diag;
  check_applies ~extra_diag ~applies t what scheme g jacs

let replicated g (dc : float array) =
  let n = Array.length dc in
  let x = Array.make (Grid.points g * n) 0.0 in
  for p = 0 to Grid.points g - 1 do
    Array.blit dc 0 x (p * n) n
  done;
  x

let test_block_sweep_mixer () =
  let mna, shear = mixer_fixture () in
  let g = Grid.make ~shear ~n1:10 ~n2:6 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna in
  let jacs = Mpde.Assemble.point_jacobians sys g sol.Mpde.Solver.big_x in
  let patterns = check_sweep_bitwise "mixer" Mpde.Assemble.Backward g jacs in
  Alcotest.(check int) "mixer shares one pattern" 1 patterns;
  ignore
    (check_sweep_bitwise ~extra_diag:0.37 "mixer, loaded diagonal" Mpde.Assemble.Backward g
       jacs);
  ignore (check_sweep_bitwise "mixer, central-t1" Mpde.Assemble.Central_t1 g jacs)

let test_block_sweep_seed () =
  (* At the replicated DC seed every block is equal: one factor serves
     every point. *)
  let mna, shear = mixer_fixture () in
  let g = Grid.make ~shear ~n1:8 ~n2:5 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let x = replicated g (Circuit.Dcop.solve_exn mna) in
  let jacs = Mpde.Assemble.point_jacobians sys g x in
  Alcotest.(check int) "one pattern" 1
    (check_sweep_bitwise "replicated seed" Mpde.Assemble.Backward g jacs)

(* The hard-switching bridge (a2 = 2 V) on a 16x6 grid after three
   exact Newton steps from the DC seed: diodes switch between grid
   points, so pivots and fill differ from point to point. Returns the
   system, the grid and the iterate. *)
let bridge_after_three_steps () =
  let f1 = 50e3 and fd = 500.0 in
  let drive =
    W.sum (W.sine ~amplitude:10.0 ~freq:f1 ()) (W.sine ~amplitude:2.0 ~freq:(f1 +. fd) ())
  in
  let { Circuits.mna; _ } = Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive () in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let g = Grid.make ~shear ~n1:16 ~n2:6 in
  let n = sys.Mpde.Assemble.size in
  let sources = Mpde.Assemble.sources_on_grid sys g in
  let x = replicated g (Circuit.Dcop.solve_exn mna) in
  for _ = 1 to 3 do
    let jacs = Mpde.Assemble.point_jacobians sys g x in
    let jac = Mpde.Assemble.jacobian_csr Mpde.Assemble.Backward g ~size:n ~jacs in
    let r = Mpde.Assemble.residual Mpde.Assemble.Backward sys g ~sources x in
    let dx = Sparse.Splu.solve (Sparse.Splu.factor jac) r in
    Array.iteri (fun i d -> x.(i) <- x.(i) -. d) dx
  done;
  (sys, g, x)

let test_block_sweep_bridge () =
  (* The store holds several patterns. *)
  let sys, g, x = bridge_after_three_steps () in
  Alcotest.(check bool) "iterate finite" true (Array.for_all Float.is_finite x);
  let jacs = Mpde.Assemble.point_jacobians sys g x in
  let patterns = check_sweep_bitwise "bridge" Mpde.Assemble.Backward g jacs in
  Alcotest.(check bool) (Printf.sprintf "several patterns (%d)" patterns) true (patterns > 1)

let test_block_sweep_validation () =
  let t = Block_sweep.create ~n:2 ~np:4 in
  let g = Grid.make ~shear:shear_1g ~n1:2 ~n2:2 in
  let apply_fails what =
    List.iter
      (fun (name, f) ->
        Alcotest.check_raises (what ^ ": " ^ name)
          (Invalid_argument "Block_sweep.apply: no factors built")
          (fun () -> ignore (f t (Array.make 8 0.0))))
      [ ("apply", Block_sweep.apply); ("product", Block_sweep.product) ]
  in
  apply_fails "apply before build";
  (* A singular block aborts the build, and the half-written store must
     not be applied. *)
  let eye = Sparse.Csr.identity 2 and zero = Sparse.Csr.scale 0.0 (Sparse.Csr.identity 2) in
  let jacs = [| (eye, eye); (eye, eye); (zero, zero); (eye, eye) |] in
  let ops = Mpde.Assemble.operators Mpde.Assemble.Backward g in
  Block_sweep.build t ops g ~jacs:(Array.make 4 (eye, eye)) ~extra_diag:0.0;
  (* The sweep indexes its argument unchecked, so a vector of the wrong
     length is rejected up front. *)
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises ("short vector: " ^ name)
        (Invalid_argument "Block_sweep.apply: dimension mismatch")
        (fun () -> ignore (f t (Array.make 7 0.0))))
    [ ("apply", Block_sweep.apply); ("product", Block_sweep.product) ];
  (match Block_sweep.build t ops g ~jacs ~extra_diag:0.0 with
  | () -> Alcotest.fail "singular block accepted"
  | exception Linalg.Lu.Singular _ -> ());
  apply_fails "apply after a failed build";
  (* A pivot below the dense path's tolerance is singular on a compiled
     schedule too: points 0 and 1 set up the schedule, point 2 would
     pass every other check on it. *)
  let tiny = Sparse.Csr.scale 1e-310 eye in
  let jacs = [| (eye, zero); (eye, zero); (tiny, zero); (eye, zero) |] in
  match Block_sweep.build t ops g ~jacs ~extra_diag:0.0 with
  | () -> Alcotest.fail "tiny pivot accepted"
  | exception Linalg.Lu.Singular _ -> ()

(* ---------- block sweep: the compiled-schedule refactor path ---------- *)

(* The converged mixer: every block has the pivot order of the first,
   so the first build factors point 0 densely and refactors every other
   point on the schedule compiled from it; later builds on the same
   workspace find the schedule interned. [extra_diag] toggling between
   builds switches between a loaded and an unloaded schedule, the
   loaded one compiled under the unloaded one's pivot order: no dense
   point at all. *)
let test_block_sweep_refactor_mixer () =
  let mna, shear = mixer_fixture () in
  let g = Grid.make ~shear ~n1:10 ~n2:6 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna in
  let jacs = Mpde.Assemble.point_jacobians sys g sol.Mpde.Solver.big_x in
  let np = Grid.points g in
  let t = Block_sweep.create ~n:sys.Mpde.Assemble.size ~np in
  let backward = Mpde.Assemble.Backward in
  Alcotest.(check (pair int int))
    "first build: point 0 dense, the rest refactored" (np - 1, 1)
    (build_counted t backward g ~jacs ~extra_diag:0.0);
  Alcotest.(check int) "one pattern" 1 (check_applies t "mixer, refactored" backward g jacs);
  Alcotest.(check (pair int int))
    "second build: all refactored" (np, 0)
    (build_counted t backward g ~jacs ~extra_diag:0.0);
  ignore (check_applies t "mixer, second build" backward g jacs);
  List.iteri
    (fun k extra_diag ->
      let refactors, dense = build_counted t backward g ~jacs ~extra_diag in
      Alcotest.(check (pair int int))
        (Printf.sprintf "build %d (extra_diag %g): all refactored" k extra_diag)
        (np, 0) (refactors, dense);
      ignore
        (check_applies ~extra_diag t
           (Printf.sprintf "mixer, build %d, extra_diag %g" k extra_diag)
           backward g jacs))
    [ 0.37; 0.0; 0.37; 0.0 ]

(* The bridge's pivot order changes between points: those points fall
   back to the dense factorization, the rest are refactored, and the
   result stays bitwise the dense reference. *)
let test_block_sweep_refactor_bridge () =
  let sys, g, x = bridge_after_three_steps () in
  let jacs = Mpde.Assemble.point_jacobians sys g x in
  let np = Grid.points g in
  let t = Block_sweep.create ~n:sys.Mpde.Assemble.size ~np in
  let backward = Mpde.Assemble.Backward in
  let refactors, dense = build_counted t backward g ~jacs ~extra_diag:0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "fallbacks (%d dense) and refactors (%d)" dense refactors)
    true
    (dense > 1 && refactors > 0 && refactors + dense = np);
  let patterns = check_applies t "bridge, refactored" backward g jacs in
  let refactors', dense' = build_counted t backward g ~jacs ~extra_diag:0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rebuild: %d dense <= %d" dense' dense)
    true
    (dense' <= dense && refactors' + dense' = np);
  Alcotest.(check int) "rebuild: same patterns" patterns
    (check_applies t "bridge, rebuilt" backward g jacs)

(* Four hand-made blocks on a 2x2 grid: [blocks] are dense G_p, every
   entry that is not 0 stored, NaN included (C_p an explicit zero
   diagonal, so D_p = G_p exactly). Checks the applies bitwise and
   returns the built workspace, the build's factor paths and its
   pattern count. *)
let hand_blocks blocks =
  let n = Array.length blocks.(0) in
  let g = Grid.make ~shear:shear_1g ~n1:2 ~n2:2 in
  let zero = Sparse.Csr.scale 0.0 (Sparse.Csr.identity n) in
  let csr b =
    let coo = Sparse.Coo.create n n in
    Array.iteri (fun i row -> Array.iteri (fun j v -> if v <> 0.0 then Sparse.Coo.add coo i j v) row) b;
    Sparse.Csr.of_coo coo
  in
  let jacs = Array.map (fun b -> (csr b, zero)) blocks in
  let t = Block_sweep.create ~n ~np:(Array.length blocks) in
  let counts = build_counted t Mpde.Assemble.Backward g ~jacs ~extra_diag:0.0 in
  (t, counts, check_applies t "hand blocks" Mpde.Assemble.Backward g jacs)

let test_block_sweep_refactor_tie () =
  (* Point 0 pivots on row 1 and compiles that schedule. Point 1 ties:
     |4| = |4| in column 0, where partial pivoting keeps row 0, not the
     schedule's row 1, so it must fall back. Point 2 ties on the
     identity schedule point 1 selected; point 3 is refactored. *)
  let _, counts, _ =
    hand_blocks
      [|
        [| [| 1.0; 1.0 |]; [| 4.0; 3.0 |] |];
        [| [| 4.0; 1.0 |]; [| 4.0; 3.0 |] |];
        [| [| 4.0; 1.0 |]; [| -4.0; 3.0 |] |];
        [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |];
      |]
  in
  Alcotest.(check (pair int int)) "ties fall back" (1, 3) counts

let test_block_sweep_refactor_cancel () =
  (* U(1, 2) = 0.5 − 0.5·1 cancels to exactly 0 at point 2: the dense
     factor has no (1, 2) entry, so the point falls back and is stored
     under its own pattern; point 3 returns to the schedule. *)
  let block u12 = [| [| 2.0; 0.0; 1.0 |]; [| 1.0; 1.0; u12 |]; [| 0.0; 0.0; 1.0 |] |] in
  let _, counts, patterns = hand_blocks [| block 0.25; block 0.25; block 0.5; block 0.25 |] in
  Alcotest.(check (pair int int)) "the zero slot falls back" (2, 2) counts;
  Alcotest.(check int) "three pattern runs" 3 patterns

let test_block_sweep_refactor_nonfinite () =
  (* A NaN or Inf entry sends the point down the dense path, which keeps
     the non-finite entries in the store as before: the apply returns
     the dense reference's NaNs bit for bit. *)
  let t, counts, _ =
    hand_blocks
      [|
        [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |];
        [| [| 4.0; Float.nan |]; [| 1.0; 3.0 |] |];
        [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |];
        [| [| 4.0; 1.0 |]; [| Float.infinity; 3.0 |] |];
      |]
  in
  Alcotest.(check (pair int int)) "non-finite blocks fall back" (1, 3) counts;
  let y = Block_sweep.apply t (test_vector 8) in
  Alcotest.(check bool) "NaN kept" true (Array.exists Float.is_nan y)

(* A warm build refactors every point without allocating: its words
   do not grow with the grid (60 against 240 points). *)
let test_block_sweep_refactor_alloc () =
  let mna, shear = mixer_fixture () in
  let g = Grid.make ~shear ~n1:10 ~n2:6 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna in
  let jacs = Mpde.Assemble.point_jacobians sys g sol.Mpde.Solver.big_x in
  let warm_words g jacs =
    let t = Block_sweep.create ~n:sys.Mpde.Assemble.size ~np:(Grid.points g) in
    let ops = Mpde.Assemble.operators Mpde.Assemble.Backward g in
    Block_sweep.build t ops g ~jacs ~extra_diag:0.0;
    Block_sweep.build t ops g ~jacs ~extra_diag:0.0;
    let w0 = Gc.minor_words () in
    Block_sweep.build t ops g ~jacs ~extra_diag:0.0;
    Gc.minor_words () -. w0
  in
  let g4 = Grid.make ~shear ~n1:20 ~n2:12 in
  let jacs4 = Array.init (Grid.points g4) (fun p -> jacs.(p mod Array.length jacs)) in
  let small = warm_words g jacs and large = warm_words g4 jacs4 in
  if large <> small then
    Alcotest.failf "warm build: %.0f words at 60 points, %.0f at 240" small large

(* Eisenstat's product against the true operator: [Block_sweep.product v]
   must equal [jacobian_apply_ws] applied to ŷ = [Block_sweep.apply v]
   up to rounding. The bound, per unknown, with u = 2⁻⁵³ and
   γ_k = k·u/(1 − k·u):

   Exactly, v + R·ŷ − J·ŷ = v − M·ŷ since R = J − M, so
     product − fl(J·ŷ) = (v − M·ŷ) + (product − (v + R·ŷ)) − (fl(J·ŷ) − J·ŷ).
   - The sweep forms b̂_p = fl(v_p + Σ c·fl(C_q·ŷ_q)) over M's couplings,
     stamps D̂_p = fl(σ·C_p + G_p + e·I) and solves by LU, so
     (D̂_p + Δ)·ŷ_p = b̂_p with |Δ| ≤ γ_3n·Pᵀ|L̂||Û| (Higham, Thm 9.4):
     |v − M·ŷ| ≤ γ_K·(|v| + |M||ŷ|) + γ_3n·Pᵀ|L̂||Û||ŷ|.
   - The product rounds C_q·ŷ_q, R's coefficients (differences of J's
     and M's) and its sums: |product − (v + R·ŷ)| ≤ γ_K·(|v| + (|J| + |M|)|ŷ|).
   - The matrix-free J·ŷ: |fl(J·ŷ) − J·ŷ| ≤ γ_K·|J||ŷ|.
   So |product − fl(J·ŷ)| ≤ γ_K·(2|v| + 2|J||ŷ| + 2|M||ŷ| + Pᵀ|L̂||Û||ŷ|)
   with K = 3n + (largest row of C or G) + (stencil terms of one point,
   J's and M's) + 4, which covers every count above. |J| and |M| are
   taken entry by entry (|w/s| per stencil weight), and the magnitudes
   are themselves computed with relative error far below the slack. A
   coupling R missed or double-counted would be off by about
   |w/s|·|C_q||ŷ_q|, orders of magnitude above the bound. *)
let check_sweep_product ?(extra_diag = 0.0) what scheme sys (g : Grid.t) x =
  let ws = Mpde.Assemble.workspace scheme sys g in
  let jacs = Mpde.Assemble.point_jacobians_ws ws x in
  let ((op1, op2) as ops) = Mpde.Assemble.workspace_operators ws in
  let n = sys.Mpde.Assemble.size and np = Grid.points g and n1 = g.Grid.n1 in
  let t = Block_sweep.create ~n ~np in
  Block_sweep.build t ops g ~jacs ~extra_diag;
  let v = test_vector (np * n) in
  let y = Array.copy (Block_sweep.apply t v) in
  let product = Block_sweep.product t v in
  let jy = Array.make (np * n) 0.0 in
  Mpde.Assemble.jacobian_apply_ws ws ~extra_diag ~cw:(Array.make (np * n) 0.0) y jy;
  Alcotest.check_raises (what ^ ": short J·v output")
    (Invalid_argument "Mpde.Assemble.jacobian_apply_ws: dimension mismatch") (fun () ->
      Mpde.Assemble.jacobian_apply_ws ws ~extra_diag ~cw:(Array.make (np * n) 0.0) y
        (Array.make ((np * n) - 1) 0.0));
  (* |A||ŷ_p| for one per-point CSR block, and its largest row. *)
  let abs_mul (a : Sparse.Csr.t) p =
    Array.init n (fun r ->
        let s = ref 0.0 in
        Sparse.Csr.iter_row a r (fun c w -> s := !s +. (Float.abs w *. Float.abs y.((p * n) + c)));
        !s)
  in
  let widest (a : Sparse.Csr.t) =
    let rp = a.Sparse.Csr.row_ptr in
    Array.fold_left max 0 (Array.init n (fun r -> rp.(r + 1) - rp.(r)))
  in
  let cy = Array.init np (fun p -> abs_mul (snd jacs.(p)) p) in
  let gy = Array.init np (fun p -> abs_mul (fst jacs.(p)) p) in
  let nnz = Array.fold_left (fun m (gp, cp) -> max m (max (widest gp) (widest cp))) 0 jacs in
  let weights (op : Numeric.Collocation.operator) r =
    Array.map (fun (l, w) -> (l, Float.abs (w /. op.Numeric.Collocation.scale))) op.weights.(r)
  in
  (* M as the sweep (and [dense_sweep]) builds it: the t1 diagonal and
     lower neighbour only for the backward scheme, and the backward t2
     difference without its wrap. *)
  let t1d = scheme = Mpde.Assemble.Backward in
  let inv_h1 = 1.0 /. g.Grid.h1 and inv_h2 = 1.0 /. g.Grid.h2 in
  let terms = ref 0 in
  let bound = Array.make (np * n) 0.0 in
  for p = 0 to np - 1 do
    let i = p mod n1 and j = p / n1 in
    let j1 = weights op1 i and j2 = weights op2 j in
    let m_diag = (if t1d then inv_h1 else 0.0) +. inv_h2 in
    let m_lower =
      (if t1d && i > 0 then [ (p - 1, inv_h1) ] else [])
      @ if j > 0 then [ (p - n1, inv_h2) ] else []
    in
    terms := max !terms (Array.length j1 + Array.length j2 + List.length m_lower + 3);
    let d = Linalg.Mat.create n n in
    let gp, cp = jacs.(p) in
    for r = 0 to n - 1 do
      Sparse.Csr.iter_row cp r (fun c w ->
          Linalg.Mat.set d r c (Linalg.Mat.get d r c +. (m_diag *. w)));
      Sparse.Csr.iter_row gp r (fun c w -> Linalg.Mat.set d r c (Linalg.Mat.get d r c +. w));
      Linalg.Mat.set d r r (Linalg.Mat.get d r r +. extra_diag)
    done;
    let lu, perm, _ = Linalg.Lu.packed (Linalg.Lu.factor d) in
    for k = 0 to n - 1 do
      (* row k of |L̂||Û||ŷ_p| belongs to D_p's row perm.(k) *)
      let s = ref 0.0 in
      for m = 0 to k do
        let l = if m = k then 1.0 else Float.abs (Linalg.Mat.get lu k m) in
        for c = m to n - 1 do
          s := !s +. (l *. Float.abs (Linalg.Mat.get lu m c) *. Float.abs y.((p * n) + c))
        done
      done;
      bound.((p * n) + perm.(k)) <- !s
    done;
    for r = 0 to n - 1 do
      let e = Float.abs extra_diag *. Float.abs y.((p * n) + r) in
      let jmag =
        Array.fold_left (fun s (l, w) -> s +. (w *. cy.((j * n1) + l).(r))) 0.0 j1
        +. Array.fold_left (fun s (m, w) -> s +. (w *. cy.((m * n1) + i).(r))) 0.0 j2
        +. gy.(p).(r) +. e
      in
      let mmag =
        (m_diag *. cy.(p).(r)) +. gy.(p).(r) +. e
        +. List.fold_left (fun s (q, w) -> s +. (w *. cy.(q).(r))) 0.0 m_lower
      in
      let k = (p * n) + r in
      bound.(k) <- bound.(k) +. (2.0 *. Float.abs v.(k)) +. (2.0 *. jmag) +. (2.0 *. mmag)
    done
  done;
  let u = epsilon_float /. 2.0 in
  let kk = float_of_int ((3 * n) + nnz + !terms + 4) in
  let gamma = kk *. u /. (1.0 -. (kk *. u)) in
  let worst = ref 0.0 and moved = ref false in
  Array.iteri
    (fun k b ->
      let err = Float.abs (product.(k) -. jy.(k)) in
      worst := Float.max !worst (err /. (gamma *. b));
      if product.(k) <> v.(k) then moved := true)
    bound;
  Alcotest.(check bool) (Printf.sprintf "%s: within bound (worst %.2g of it)" what !worst)
    true (!worst <= 1.0);
  Alcotest.(check bool) (what ^ ": R is not empty") true !moved

let test_sweep_product () =
  let mna, shear = mixer_fixture () in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let g = Grid.make ~shear ~n1:10 ~n2:6 in
  let x = (Mpde.Solver.solve_mna ~shear ~n1:10 ~n2:6 mna).Mpde.Solver.big_x in
  check_sweep_product "mixer" Mpde.Assemble.Backward sys g x;
  check_sweep_product ~extra_diag:0.37 "mixer, loaded diagonal" Mpde.Assemble.Backward sys g x;
  check_sweep_product "mixer, central-t1" Mpde.Assemble.Central_t1 sys g x;
  (* Spectral axes need an odd number of points. *)
  let g = Grid.make ~shear ~n1:9 ~n2:5 in
  let x = (Mpde.Solver.solve_mna ~shear ~n1:9 ~n2:5 mna).Mpde.Solver.big_x in
  check_sweep_product "mixer, spectral-t1" Mpde.Assemble.Spectral_t1 sys g x;
  check_sweep_product "mixer, spectral-both" Mpde.Assemble.Spectral_both sys g x;
  (* The bridge a few Newton steps from its DC seed, as in "block sweep
     bridge = dense": several factor patterns. *)
  let sys, g, x = bridge_after_three_steps () in
  check_sweep_product "bridge" Mpde.Assemble.Backward sys g x

(* Random small grids whose per-point blocks differ from their
   neighbours in zero pattern and in which row wins each pivot: G_p is a
   row-permuted, diagonally dominant sparse matrix (nonsingular, its
   pivot order set by the permutation) and C_p a small sparse
   perturbation. A quarter of the points copy their predecessor's
   blocks, so shared pattern runs are exercised too, and a quarter
   keep its structure with every value scaled by up to ±1 %, so they
   usually keep its pivot order and are refactored on its schedule.
   h1, h2 are O(1) so C does not swamp G. *)
let prop_block_sweep_random =
  QCheck.Test.make ~count:200 ~name:"block sweep: compact = dense on random grids"
    QCheck.(
      make
        Gen.(
          quad (int_range 2 4) (int_range 2 4) (int_range 1 6) (int_range 0 1_000_000)))
    (fun (n1, n2, n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Grid.make ~shear:(Shear.make ~fast_freq:0.25 ~slow_freq:0.05) ~n1 ~n2 in
      let sparse_block ~density ~scale ~dominant =
        let perm = Array.init n Fun.id in
        if dominant then
          for i = n - 1 downto 1 do
            let k = Random.State.int st (i + 1) in
            let t = perm.(i) in
            perm.(i) <- perm.(k);
            perm.(k) <- t
          done;
        let m = Linalg.Mat.create n n in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if Random.State.float st 1.0 < density then
              Linalg.Mat.set m perm.(i) j (scale *. (Random.State.float st 2.0 -. 1.0))
          done;
          if dominant then
            Linalg.Mat.set m perm.(i) i (float_of_int n +. 1.0 +. Random.State.float st 1.0)
        done;
        Support.csr_of_dense m
      in
      let np = Grid.points g in
      let jacs = Array.make np (Sparse.Csr.identity n, Sparse.Csr.identity n) in
      let perturbed (m : Sparse.Csr.t) =
        {
          m with
          Sparse.Csr.values =
            Array.map
              (fun v -> v *. (1.0 +. (0.01 *. (Random.State.float st 2.0 -. 1.0))))
              m.Sparse.Csr.values;
        }
      in
      for p = 0 to np - 1 do
        jacs.(p) <-
          (if p > 0 && Random.State.bool st then
             if Random.State.bool st then jacs.(p - 1)
             else
               let gp, cp = jacs.(p - 1) in
               (perturbed gp, perturbed cp)
           else
             ( sparse_block ~density:(Random.State.float st 1.0) ~scale:1.0 ~dominant:true,
               sparse_block ~density:0.3 ~scale:0.05 ~dominant:false ))
      done;
      let scheme =
        if Random.State.bool st then Mpde.Assemble.Backward else Mpde.Assemble.Central_t1
      in
      ignore (check_sweep_bitwise ~applies:1 "random" scheme g jacs);
      true)

(* ---------- properties ---------- *)

let prop_shear_diagonal =
  QCheck.Test.make ~count:200 ~name:"shear: phase(t,t) = f·t on the lattice"
    QCheck.(
      make
        Gen.(
          triple (int_range (-3) 3) (int_range (-20) 20) (float_range 0.0 1e-4)))
    (fun (m, k, t) ->
      let f = (float_of_int m *. 1e9) +. (float_of_int k *. 10e3) in
      if f <= 0.0 then true
      else begin
        let p = Shear.phase shear_1g ~t1:t ~t2:t f in
        Float.abs (p -. (f *. t)) <= 1e-5 *. Float.max 1.0 (Float.abs (f *. t))
      end)

let prop_shear_lattice_roundtrip =
  QCheck.Test.make ~count:200 ~name:"shear: lattice(m·f1 + k·fd) = (m, k)"
    QCheck.(make Gen.(pair (int_range 0 4) (int_range (-40) 40)))
    (fun (m, k) ->
      let f = (float_of_int m *. 1e9) +. (float_of_int k *. 10e3) in
      f <= 0.0 || Support.shear_lattice shear_1g f = (m, k))

(* ---------- Inexact Newton ---------- *)

(* The GMRES path stops each Newton correction at the Eisenstat–Walker
   forcing term; Newton's own test (‖F‖∞ ≤ tol) is unchanged. These
   tests check the solution against the exact-linear-solve path and
   the Newton counts against those of the fixed 1e-9 tolerance. *)

(* The full-wave bridge of the bridge-rectifier benchmark. *)
let bridge_f1 = 50e3
let bridge_fd = 500.0

let bridge ~a2 () =
  let drive =
    W.sum
      (W.sine ~amplitude:10.0 ~freq:bridge_f1 ())
      (W.sine ~amplitude:a2 ~freq:(bridge_f1 +. bridge_fd) ())
  in
  Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive ()

let bridge_problem ~a2 =
  Engine.Problem.make ~label:"bridge-rectifier" ~output:"p" ~output_b:"n" ~f_fast:bridge_f1
    ~fd:bridge_fd (bridge ~a2)

(* ‖A‖∞, the largest absolute row sum. *)
let csr_norm_inf (m : Sparse.Csr.t) =
  let worst = ref 0.0 in
  for i = 0 to m.Sparse.Csr.rows - 1 do
    let sum = ref 0.0 in
    Sparse.Csr.iter_row m i (fun _ v -> sum := !sum +. Float.abs v);
    worst := Float.max !worst !sum
  done;
  !worst

(* ‖C·A⁻¹‖∞ for a sparse C given by its rows: row k of C·A⁻¹ is
   (A⁻ᵀc_k)ᵀ, one solve each with the sparse LU of Aᵀ. With C = I this
   is ‖A⁻¹‖∞ exactly. *)
let selected_inverse_norm_inf (a : Sparse.Csr.t) rows =
  let n = a.Sparse.Csr.rows in
  let at = Sparse.Coo.create n n in
  for i = 0 to n - 1 do
    Sparse.Csr.iter_row a i (fun j v -> Sparse.Coo.add at j i v)
  done;
  let lu = Sparse.Splu.factor (Sparse.Csr.of_coo at) in
  let c = Array.make n 0.0 and y = Array.make n 0.0 in
  Array.fold_left
    (fun worst row ->
      List.iter (fun (k, v) -> c.(k) <- v) row;
      Sparse.Splu.solve_into lu c y;
      List.iter (fun (k, _) -> c.(k) <- 0.0) row;
      Float.max worst (Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 y))
    0.0 rows

let jacobian_at (sol : Mpde.Solver.solution) x =
  let sys = sol.Mpde.Solver.system and g = sol.Mpde.Solver.grid in
  Mpde.Assemble.jacobian_csr sol.Mpde.Solver.scheme g ~size:sys.Mpde.Assemble.size
    ~jacs:(Mpde.Assemble.point_jacobians sys g x)

(* Two converged solutions of the same problem: GMRES (inexact) against
   sparse LU (exact) Newton corrections, or two starts. Let x_g, x_d be
   the two solutions, Δx = x_g − x_d,
   and r_g = F(x_g), r_d = F(x_d) their residuals. By the mean-value
   theorem r_g − r_d = J̄·Δx with J̄ = ∫₀¹ J(x_d + tΔx) dt, so, exactly,
     J_d·Δx = r_g − r_d − E·Δx,   E = J̄ − J_d,
   and for any linear read-out C of the state
     ‖C·Δx‖∞ ≤ ‖C·J_d⁻¹‖∞·(‖r_g‖∞ + ‖r_d‖∞ + ‖E‖∞·‖Δx‖∞).
   For a smooth J, E = ½(J(x_g) − J_d) + O(‖Δx‖²), so ‖J(x_g) − J_d‖∞
   bounds ‖E‖∞ with a factor 2 to spare at leading order. Every factor
   is computed here, ‖C·J_d⁻¹‖∞ exactly, so the bound holds whatever
   tolerance each linear solve stopped at. [readout] gives C's rows
   for a problem of [size] unknowns per point on [points] points. *)
let check_close what ~readout (gmres : Mpde.Solver.solution) (direct : Mpde.Solver.solution) =
  let ok (s : Mpde.Solver.solution) = s.Mpde.Solver.stats.Mpde.Solver.converged in
  Alcotest.(check bool) (what ^ ": both converged") true (ok gmres && ok direct);
  let r_g = Mpde.Solver.residual_norm_check gmres
  and r_d = Mpde.Solver.residual_norm_check direct in
  let tol = Mpde.Solver.default_options.Mpde.Solver.tol in
  Alcotest.(check bool)
    (Printf.sprintf "%s: residuals %.2e, %.2e <= %.0e" what r_g r_d tol)
    true
    (r_g <= tol && r_d <= tol);
  let x_g = gmres.Mpde.Solver.big_x and x_d = direct.Mpde.Solver.big_x in
  let j_d = jacobian_at direct x_d in
  let rows =
    readout ~size:direct.Mpde.Solver.system.Mpde.Assemble.size
      ~points:(Grid.points direct.Mpde.Solver.grid)
  in
  let sensitivity = selected_inverse_norm_inf j_d rows in
  let drift =
    csr_norm_inf (Sparse.Csr.add (jacobian_at gmres x_g) (Sparse.Csr.scale (-1.0) j_d))
  in
  let dx = Array.fold_left Float.max 0.0 (Array.mapi (fun i v -> Float.abs (v -. x_d.(i))) x_g) in
  let bound = sensitivity *. (r_g +. r_d +. (drift *. dx)) in
  let read_dx =
    Array.fold_left
      (fun worst row ->
        Float.max worst
          (Float.abs (List.fold_left (fun acc (k, v) -> acc +. (v *. (x_g.(k) -. x_d.(k)))) 0.0 row)))
      0.0 rows
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: |C·Δx| %.2e <= %.2e" what read_dx bound)
    true (read_dx <= bound)

let check_against_direct what ~readout ~shear ~n1 ~n2 mna =
  let gmres = Mpde.Solver.solve_mna ~shear ~n1 ~n2 mna in
  let direct =
    Mpde.Solver.solve_mna
      ~options:{ Mpde.Solver.default_options with linear_solver = Mpde.Solver.Direct }
      ~shear ~n1 ~n2 mna
  in
  check_close what ~readout gmres direct

(* The whole state: the mixer's Jacobian is well conditioned. *)
let whole_state ~size ~points = Array.init (size * points) (fun k -> [ (k, 1.0) ])

let test_inexact_mixer_vs_direct () =
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  check_against_direct "balanced mixer 16x10" ~readout:whole_state
    ~shear:(Shear.make ~fast_freq:f_lo ~slow_freq:fd) ~n1:16 ~n2:10 mna

(* The bridge's output pair floats: p and n are tied to ground only
   through the diodes, which on this grid conduct too briefly to pin
   their common mode (‖J⁻¹‖∞ ≈ 3e11), so two solves may leave p and n
   shifted together by volts at residuals below 1e-8. The well-posed
   read-out is the differential output p − n at every grid point. *)
let test_inexact_bridge_vs_direct () =
  let { Circuits.mna; _ } = bridge ~a2:2.0 () in
  let shear = Shear.make ~fast_freq:bridge_f1 ~slow_freq:bridge_fd in
  let p = Circuit.Mna.node_index mna "p" and n = Circuit.Mna.node_index mna "n" in
  let differential ~size ~points =
    Array.init points (fun q -> [ ((q * size) + p, 1.0); ((q * size) + n, -1.0) ])
  in
  check_against_direct "bridge 24x12 output" ~readout:differential ~shear ~n1:24 ~n2:12 mna

(* Newton-iteration ceilings: the catalog at its default grid, and the
   bridge on 24x12 over its drive amplitude a2. A plain start must take
   no more steps under the forcing terms than under the fixed 1e-9
   GMRES tolerance, plus the probe's one step on the coarsest grid for
   a nonlinear circuit. A nested start (the rectifier, the detector and
   the bridge) is one Newton solve per level, and there the forcing
   terms can cost a level a step: the detector's levels, 4x3 to 32x24,
   take 13, 13, 7 and 6 steps against the fixed tolerance's 12, 12, 7
   and 5. A nested ceiling is the count measured when the start came
   to be decided on the coarsest grid, so a change that costs a step
   shows. *)
let catalog_newton_ceiling =
  [
    ("rc", 1);
    ("rectifier", 19);
    ("detector", 39);
    ("ideal-mixer", 2 + 1);
    ("unbalanced-mixer", 2 + 1);
    ("balanced-mixer", 5 + 1);
  ]

let bridge_newton_ceiling = [ (1.5, 38); (2.0, 44); (2.5, 41) ]

let test_newton_counts_no_higher () =
  let check what ceiling (r : Engine.Result.t) =
    Alcotest.(check bool) (what ^ " converged") true r.Engine.Result.converged;
    let k = r.Engine.Result.newton_iterations in
    Alcotest.(check bool) (Printf.sprintf "%s: newton %d <= %d" what k ceiling) true (k <= ceiling)
  in
  List.iter
    (fun (name, ceiling) ->
      let fixture = Result.get_ok (Serve.Catalog.find name) in
      let f_fast = fixture.Serve.Catalog.default_fast
      and fd = fixture.Serve.Catalog.default_fd in
      let r =
        Engine.run (Serve.Catalog.problem_of fixture ~f_fast ~fd) (Engine.make Engine.Mpde)
      in
      check name ceiling r;
      if name = "rc" then Alcotest.(check int) "rc: one step" 1 r.Engine.Result.newton_iterations)
    catalog_newton_ceiling;
  let options = { Engine.Options.default with n1 = 24; n2 = 12 } in
  List.iter
    (fun (a2, ceiling) ->
      check
        (Printf.sprintf "bridge 24x12 a2=%g" a2)
        ceiling
        (Engine.run (bridge_problem ~a2) (Engine.make ~options Engine.Mpde)))
    bridge_newton_ceiling

(* ---------- Nested start ---------- *)

(* [Grid.prolong] reproduces what bilinear interpolation can: a
   constant everywhere, and a field bilinear in (u, v) = (i/n1, j/n2)
   at the fine points outside the wrap-around cells, u ≤ (m1−1)/m1 and
   v ≤ (m2−1)/m2 on an m1×m2 coarse grid, where periodic interpolation
   bridges the last sample back to the first. Non-nested halvings
   (7 onto 15) included. *)
let test_prolong_exact () =
  let shear = Shear.make ~fast_freq:1e6 ~slow_freq:1e3 in
  let bilinear u v = 0.3 +. (2.0 *. u) -. (1.5 *. v) +. (4.0 *. u *. v) in
  let coords (g : Grid.t) i j =
    (float_of_int i /. float_of_int g.Grid.n1, float_of_int j /. float_of_int g.Grid.n2)
  in
  List.iter
    (fun (m1, m2, n1, n2) ->
      let coarse = Grid.make ~shear ~n1:m1 ~n2:m2 and fine = Grid.make ~shear ~n1 ~n2 in
      let x = Array.make (Grid.points coarse * 2) 0.0 in
      for j = 0 to m2 - 1 do
        for i = 0 to m1 - 1 do
          let p = Grid.point_index coarse i j and u, v = coords coarse i j in
          x.(2 * p) <- 1.5;
          x.((2 * p) + 1) <- bilinear u v
        done
      done;
      let y = Grid.prolong ~size:2 coarse x fine in
      let what = Printf.sprintf "%dx%d onto %dx%d" m1 m2 n1 n2 in
      for j = 0 to n2 - 1 do
        for i = 0 to n1 - 1 do
          let p = Grid.point_index fine i j and u, v = coords fine i j in
          Alcotest.(check (float 1e-12)) (what ^ ": constant") 1.5 y.(2 * p);
          if u <= float_of_int (m1 - 1) /. float_of_int m1
             && v <= float_of_int (m2 - 1) /. float_of_int m2
          then Alcotest.(check (float 1e-12)) (what ^ ": bilinear") (bilinear u v) y.((2 * p) + 1)
        done
      done)
    [ (8, 6, 16, 12); (7, 5, 15, 11); (3, 3, 7, 6); (12, 6, 24, 12) ]

let solution_of (r : Engine.Result.t) = Option.get r.Engine.Result.mpde_solution

let start_of r = Mpde.Solver.start_name (solution_of r).Mpde.Solver.stats.Mpde.Solver.start

let stage_names (r : Engine.Result.t) =
  List.map (fun s -> s.Resilience.Report.name) r.Engine.Result.report.Resilience.Report.stages

(* The Gilbert cell of the disparity-sweep benchmark, at its middle fd. *)
let gilbert_problem () =
  let f_lo = 100e6 and fd = 1e4 in
  let nodes = Circuits.gilbert_mixer_nodes in
  Engine.Problem.make ~label:"gilbert" ~period:Engine.Problem.Difference_tone
    ~output:nodes.Circuits.out_plus ~output_b:nodes.Circuits.out_minus ~f_fast:f_lo ~fd
    (fun () ->
      Circuits.gilbert_mixer ~f_lo
        ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
        ~rf_amplitude:0.02 ())

(* The probe reads ≤ 2e-3 on the mixers, which keep the plain start
   and one probe@4x3 row for the probe's step, and ≥ 0.75 on the
   rectifier, the detector, the bridge and the Gilbert cell, whose
   probe runs on as the coarsest level. The linear rc takes no probe.
   Either way the answer meets the Newton tolerance, and the stage
   table adds up to the reported total. *)
let test_start_choice () =
  let check what expected ~levels (r : Engine.Result.t) =
    Alcotest.(check bool) (what ^ ": converged") true r.Engine.Result.converged;
    Alcotest.(check string) (what ^ ": start") expected (start_of r);
    Alcotest.(check bool)
      (what ^ ": residual within the tolerance")
      true
      (Mpde.Solver.residual_norm_check (solution_of r) <= Engine.Options.default.Engine.Options.tol);
    Alcotest.(check int) (what ^ ": stages add up") r.Engine.Result.newton_iterations
      (List.fold_left
         (fun acc s -> acc + s.Resilience.Report.iterations)
         0 r.Engine.Result.report.Resilience.Report.stages);
    Alcotest.(check (list string))
      (what ^ ": stage rows")
      (levels @ [ "newton"; "direct-lu"; "source-ramp"; "ptc-ramp" ])
      (stage_names r)
  in
  let default_levels = [ "newton@4x3"; "newton@8x6"; "newton@16x12" ] in
  List.iter
    (fun (name, expected, levels) ->
      let fixture = Result.get_ok (Serve.Catalog.find name) in
      let r =
        Engine.run
          (Serve.Catalog.problem_of fixture ~f_fast:fixture.Serve.Catalog.default_fast
             ~fd:fixture.Serve.Catalog.default_fd)
          (Engine.make Engine.Mpde)
      in
      check name expected ~levels r)
    [
      ("rc", "plain", []);
      ("rectifier", "nested", default_levels);
      ("detector", "nested", default_levels);
      ("ideal-mixer", "plain", [ "probe@4x3" ]);
      ("unbalanced-mixer", "plain", [ "probe@4x3" ]);
      ("balanced-mixer", "plain", [ "probe@4x3" ]);
    ];
  let grid n1 n2 = Engine.make ~options:{ Engine.Options.default with n1; n2 } Engine.Mpde in
  check "bridge 24x12" "nested" ~levels:[ "newton@6x3"; "newton@12x6" ]
    (Engine.run (bridge_problem ~a2:2.0) (grid 24 12));
  check "gilbert 32x16" "nested" ~levels:[ "newton@8x4"; "newton@16x8" ]
    (Engine.run (gilbert_problem ()) (grid 32 16))

(* The first-step ratio ‖F₁‖∞/‖F₀‖∞ of Newton from the DC point on an
   n1×n2 grid, 0 when that step converges. The DC point goes in as a
   full surface with a one-step cap, so the solve is that single plain
   step, whatever start a cold solve would choose. *)
let first_step_ratio (problem : Engine.Problem.t) ~n1 ~n2 =
  let { Circuits.mna; _ } = problem.Engine.Problem.build () in
  let shear =
    Shear.make ~fast_freq:problem.Engine.Problem.f_fast ~slow_freq:problem.Engine.Problem.fd
  in
  let grid = Grid.make ~shear ~n1 ~n2 in
  let dc = Circuit.Dcop.solve_exn mna in
  let sol =
    Mpde.Solver.solve
      ~options:{ Mpde.Solver.default_options with max_newton = 1; allow_continuation = false }
      ~seed:(Array.concat (List.init (Grid.points grid) (fun _ -> dc)))
      (Mpde.Assemble.of_mna ~shear mna) grid
  in
  if sol.Mpde.Solver.stats.Mpde.Solver.converged then 0.0
  else
    sol.Mpde.Solver.stats.Mpde.Solver.residual_norm
    /. sol.Mpde.Solver.report.Resilience.Report.residual_trajectory.(0)

(* The last grid of the halving chain: ⌊n/2⌋ on both axes while both
   keep 3 points. *)
let rec coarsest (n1, n2) = if n1 / 2 >= 3 && n2 / 2 >= 3 then coarsest (n1 / 2, n2 / 2) else (n1, n2)

(* The start is decided on the coarsest grid, so its verdict (the first
   step keeps at most a tenth of ‖F‖∞, or converges) must be the fine
   grid's. Every catalog circuit, the bridge and the Gilbert cell, on
   four grids and on the bridge's and the Gilbert cell's benchmark
   grids; each ratio also keeps a factor of 3 from the gate (the
   closest, the Gilbert cell on 6x4, reads 0.39). *)
let test_coarsest_verdict () =
  let catalog =
    List.map
      (fun (c : Serve.Catalog.t) ->
        ( c.Serve.Catalog.name,
          Serve.Catalog.problem_of c ~f_fast:c.Serve.Catalog.default_fast
            ~fd:c.Serve.Catalog.default_fd ))
      Serve.Catalog.all
  in
  List.iter
    (fun (name, problem) ->
      List.iter
        (fun (n1, n2) ->
          let m1, m2 = coarsest (n1, n2) in
          let fine = first_step_ratio problem ~n1 ~n2
          and coarse = first_step_ratio problem ~n1:m1 ~n2:m2 in
          let what = Printf.sprintf "%s: %dx%d reads %.3g, %dx%d reads %.3g" name m1 m2 coarse n1 n2 fine in
          Alcotest.(check bool) (what ^ ": same verdict") (fine <= 0.1) (coarse <= 0.1);
          List.iter
            (fun r -> Alcotest.(check bool) (what ^ ": a factor of 3 from the gate") true (r <= 0.033 || r >= 0.3))
            [ fine; coarse ])
        [ (40, 30); (32, 24); (24, 16); (16, 10); (24, 12); (32, 16) ])
    (catalog @ [ ("bridge", bridge_problem ~a2:2.0); ("gilbert", gilbert_problem ()) ])

(* The nested and the plain start reach the same answer, within the
   bound [check_close] derives, on the bridge's output p − n. The plain
   start is taken from the DC point handed over as a full surface: a
   seeded solve runs plain Newton from it, which is the cold path
   without the gate (22 steps, as at 24x12 before the nested start). *)
let test_nested_vs_plain () =
  let { Circuits.mna; _ } = bridge ~a2:2.0 () in
  let shear = Shear.make ~fast_freq:bridge_f1 ~slow_freq:bridge_fd in
  let grid = Grid.make ~shear ~n1:24 ~n2:12 in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let dc = Circuit.Dcop.solve_exn mna in
  let nested = Mpde.Solver.solve ~seed:dc sys grid in
  let plain =
    Mpde.Solver.solve ~seed:(Array.concat (List.init (Grid.points grid) (fun _ -> dc))) sys grid
  in
  let start (s : Mpde.Solver.solution) = Mpde.Solver.start_name s.Mpde.Solver.stats.Mpde.Solver.start in
  Alcotest.(check string) "nested" "nested" (start nested);
  Alcotest.(check string) "plain" "seeded" (start plain);
  Alcotest.(check int) "plain steps" 22 plain.Mpde.Solver.stats.Mpde.Solver.newton_iterations;
  let p = Circuit.Mna.node_index mna "p" and n = Circuit.Mna.node_index mna "n" in
  let differential ~size ~points =
    Array.init points (fun q -> [ ((q * size) + p, 1.0); ((q * size) + n, -1.0) ])
  in
  check_close "bridge 24x12 nested vs plain" ~readout:differential nested plain

let detector_problem () =
  let fixture = Result.get_ok (Serve.Catalog.find "detector") in
  Serve.Catalog.problem_of fixture ~f_fast:fixture.Serve.Catalog.default_fast
    ~fd:fixture.Serve.Catalog.default_fd

(* The job's budget is ticked for every level's steps: a Newton cap of
   the reported total converges, bit for bit, and one less runs out. *)
let test_nested_budget () =
  let run max_newton =
    let budget = Option.map (fun m -> Resilience.Budget.make ~max_newton:m ()) max_newton in
    Engine.run (detector_problem ())
      (Engine.make ~options:{ Engine.Options.default with budget } Engine.Mpde)
  in
  let free = run None in
  let total = free.Engine.Result.newton_iterations in
  Alcotest.(check string) "nested" "nested" (start_of free);
  let capped = run (Some total) in
  Alcotest.(check bool) "cap = total converges" true capped.Engine.Result.converged;
  Alcotest.(check bool) "same answer" true
    (capped.Engine.Result.waveform.Engine.Result.values
    = free.Engine.Result.waveform.Engine.Result.values);
  let short = run (Some (total - 1)) in
  Alcotest.(check bool) "cap below total exhausts" false short.Engine.Result.converged;
  match short.Engine.Result.report.Resilience.Report.outcome with
  | Resilience.Report.Exhausted _ -> ()
  | _ -> Alcotest.fail "expected an exhausted report"

(* A GMRES stall that sinks one level of the nested start, the
   coarsest (on its second linear solve) or the 16x12 one (on its
   first, after the linear solves of the 4x3 and 8x6 levels), sends the
   solve back to plain Newton from the DC point on the fine grid, and
   its answer is the plain start's, bit for bit. *)
let test_nested_fallback () =
  let free = Engine.run (detector_problem ()) (Engine.make Engine.Mpde) in
  let row (r : Engine.Result.t) name =
    List.find
      (fun s -> s.Resilience.Report.name = name)
      r.Engine.Result.report.Resilience.Report.stages
  in
  let steps name = (row free name).Resilience.Report.iterations in
  let dc =
    Circuit.Dcop.solve_exn ((detector_problem ()).Engine.Problem.build ()).Circuits.mna
  in
  let options = Engine.Options.default in
  let surface =
    Array.concat (List.init (options.Engine.Options.n1 * options.Engine.Options.n2) (fun _ -> dc))
  in
  let plain =
    Engine.run (detector_problem ())
      (Engine.make
         ~options:{ options with Engine.Options.initial_surface = Some surface }
         Engine.Mpde)
  in
  List.iter
    (fun (level, occurrence) ->
      let plan =
        Resilience.Faultinject.parse_exn (Printf.sprintf "stall@gmres/newton:%d" occurrence)
      in
      Resilience.Faultinject.install plan;
      let r =
        Fun.protect ~finally:Resilience.Faultinject.uninstall (fun () ->
            Engine.run (detector_problem ()) (Engine.make Engine.Mpde))
      in
      Alcotest.(check bool) (level ^ ": converged") true r.Engine.Result.converged;
      Alcotest.(check string) (level ^ ": plain start") "plain" (start_of r);
      Alcotest.(check (option string)) (level ^ ": by plain Newton") (Some "newton")
        r.Engine.Result.report.Resilience.Report.strategy;
      (match (row r level).Resilience.Report.status with
      | `Failed _ -> ()
      | _ -> Alcotest.failf "expected the %s level to fail" level);
      Alcotest.(check bool) (level ^ ": the plain answer") true
        (r.Engine.Result.waveform.Engine.Result.values
        = plain.Engine.Result.waveform.Engine.Result.values))
    [ ("newton@4x3", 2); ("newton@16x12", steps "newton@4x3" + steps "newton@8x6" + 1) ]

let prop_grid_index_bijective =
  QCheck.Test.make ~count:200 ~name:"grid: point_index is a bijection on [0,n1)x[0,n2)"
    QCheck.(make Gen.(pair (int_range 0 9) (int_range 0 4)))
    (fun (i, j) ->
      let g = Grid.make ~shear:shear_1g ~n1:10 ~n2:5 in
      let p = Grid.point_index g i j in
      p = (j * 10) + i)

let prop_waveform_mt_diagonal =
  (* For any waveform with lattice frequencies, the sheared multi-time
     evaluation along the diagonal equals the one-time evaluation —
     the essence of paper eq. (2)/(11). *)
  QCheck.Test.make ~count:100 ~name:"assemble: b̂(t,t) = b(t) for random lattice tones"
    QCheck.(
      make
        Gen.(
          triple (int_range 1 3) (int_range (-10) 10) (float_range 0.0 1e-4)))
    (fun (m, k, t) ->
      let f = (float_of_int m *. 1e9) +. (float_of_int k *. 10e3) in
      let w = W.sine ~amplitude:1.0 ~freq:f () in
      let one_time = W.eval w t in
      let multi_time = W.eval_with ~phase_of:(Shear.phase shear_1g ~t1:t ~t2:t) w in
      Float.abs (one_time -. multi_time) < 1e-3)

(* ---------- kernel pins ---------- *)

(* Hashes of the per-point passes every MPDE Newton iterate repeats:
   the grid sources, [Assemble.residual_into], and [Block_sweep.apply]
   and [product] on a sweep built from that residual's Jacobians. They
   were captured before the passes were fused and inlined, and the
   rewritten passes must reproduce them bit for bit. *)
let kernel_hash values = Engine.Checkpoint.waveform_hash { Engine.Result.times = [||]; values }

let kernel_pins ?(extra_diag = 0.0) scheme (sys : Mpde.Assemble.system) g x =
  let n = sys.Mpde.Assemble.size and np = Grid.points g in
  let ws = Mpde.Assemble.workspace scheme sys g in
  let sources = Mpde.Assemble.sources_on_grid sys g in
  let r = Array.make (np * n) 0.0 in
  Mpde.Assemble.residual_into ws ~sources x r;
  let jacs = Mpde.Assemble.point_jacobians_ws ws x in
  let t = Block_sweep.create ~n ~np in
  Block_sweep.build t (Mpde.Assemble.workspace_operators ws) g ~jacs ~extra_diag;
  let applied = kernel_hash (Block_sweep.apply t r) in
  let product = kernel_hash (Block_sweep.product t (test_vector (np * n))) in
  (Block_sweep.patterns t, [ kernel_hash r; applied; product ])

let pin_mixer () =
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal () in
  let shear = Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  (mna, shear, Mpde.Assemble.of_mna ~shear mna, Grid.make ~shear ~n1:40 ~n2:30)

let pin_bridge () =
  let f1 = 50e3 and fd = 500.0 in
  let drive =
    W.sum (W.sine ~amplitude:10.0 ~freq:f1 ()) (W.sine ~amplitude:2.0 ~freq:(f1 +. fd) ())
  in
  let { Circuits.mna; _ } = Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive () in
  let shear = Shear.make ~fast_freq:f1 ~slow_freq:fd in
  (mna, shear, Mpde.Assemble.of_mna ~shear mna, Grid.make ~shear ~n1:24 ~n2:12)

let pin_solve ?(tol = Mpde.Solver.default_options.Mpde.Solver.tol) (mna, shear, _, (g : Grid.t)) =
  let sol =
    Mpde.Solver.solve_mna
      ~options:{ Mpde.Solver.default_options with tol }
      ~shear ~n1:g.Grid.n1 ~n2:g.Grid.n2 mna
  in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.Mpde.Solver.converged;
  sol

let kernel_pin_cases () =
  let ((_, _, msys, mg) as mixer) = pin_mixer () in
  (* A loose tolerance stops the solver's own Newton run after two of
     its six steps: a mid-Newton iterate of the 40x30 mixer. *)
  let mid = pin_solve ~tol:1e-2 mixer in
  let conv = pin_solve mixer in
  let ((_, _, bsys, bg) as bridge) = pin_bridge () in
  let bconv = pin_solve bridge in
  let open Mpde.Assemble in
  [
    ("mixer mid-Newton", mid.Mpde.Solver.stats.Mpde.Solver.newton_iterations,
      kernel_pins Backward msys mg mid.Mpde.Solver.big_x);
    ("mixer converged", conv.Mpde.Solver.stats.Mpde.Solver.newton_iterations,
      kernel_pins Backward msys mg conv.Mpde.Solver.big_x);
    ("bridge 24x12", bconv.Mpde.Solver.stats.Mpde.Solver.newton_iterations,
      kernel_pins Backward bsys bg bconv.Mpde.Solver.big_x);
    ("mixer central-t1", 0, kernel_pins Central_t1 msys mg mid.Mpde.Solver.big_x);
    ("mixer ptc", 0, kernel_pins ~extra_diag:0.37 Backward msys mg mid.Mpde.Solver.big_x);
  ]

(* Captured from the unfused passes: residual, apply, product. *)
let kernel_pin_values =
  [
    ("mixer mid-Newton", 2, 1, [ "a3f83087cb1f9c28"; "7f8142fed9a7311d"; "5281682b6be2308a" ]);
    ("mixer converged", 6, 1, [ "7d77022c3454d14d"; "b8bb15bc51d50cba"; "f60c117f3cff94af" ]);
    ("bridge 24x12", 44, 49, [ "bed3b5ceb25f8807"; "91722ef0f3f412e9"; "deb6b67d4f8f9cbb" ]);
    ("mixer central-t1", 0, 1, [ "8fb34c1eb5803ebf"; "f07b6d35af8b4fb9"; "82e708bdb3c4d938" ]);
    ("mixer ptc", 0, 1, [ "a3f83087cb1f9c28"; "9100cc4b43c77040"; "db9d2bae1e3dce10" ]);
  ]

let test_kernel_pins () =
  List.iter2
    (fun (name, newton, (patterns, hashes)) (name', newton', patterns', hashes') ->
      Alcotest.(check string) "case" name' name;
      Alcotest.(check int) (name ^ ": newton") newton' newton;
      Alcotest.(check int) (name ^ ": pattern runs") patterns' patterns;
      Alcotest.(check (list string)) (name ^ ": residual, apply, product") hashes' hashes)
    (kernel_pin_cases ()) kernel_pin_values;
  let sources (_, _, sys, g) = kernel_hash (Mpde.Assemble.sources_on_grid sys g) in
  Alcotest.(check string) "mixer sources" "835723210de9a96d" (sources (pin_mixer ()));
  Alcotest.(check string) "bridge sources" "eab7190beba15565" (sources (pin_bridge ()))

let () =
  Alcotest.run "mpde"
    [
      ( "inexact newton",
        [
          Alcotest.test_case "balanced mixer vs direct" `Quick test_inexact_mixer_vs_direct;
          Alcotest.test_case "bridge vs direct" `Quick test_inexact_bridge_vs_direct;
          Alcotest.test_case "newton counts no higher" `Quick test_newton_counts_no_higher;
        ] );
      ( "nested start",
        [
          Alcotest.test_case "prolongation exact" `Quick test_prolong_exact;
          Alcotest.test_case "start per circuit" `Quick test_start_choice;
          Alcotest.test_case "coarsest verdict is the fine verdict" `Quick test_coarsest_verdict;
          Alcotest.test_case "nested vs plain" `Quick test_nested_vs_plain;
          Alcotest.test_case "budget counts every level" `Quick test_nested_budget;
          Alcotest.test_case "failed nested start falls back" `Quick test_nested_fallback;
        ] );
      ( "shear",
        [
          Alcotest.test_case "accessors" `Quick test_shear_accessors;
          Alcotest.test_case "validation" `Quick test_shear_make_validation;
          Alcotest.test_case "lattice decomposition" `Quick test_shear_lattice_basic;
          Alcotest.test_case "off-lattice detection" `Quick test_shear_off_lattice;
          Alcotest.test_case "diagonal identity" `Quick test_shear_phase_diagonal_identity;
          Alcotest.test_case "bi-periodicity" `Quick test_shear_phase_periodicity;
          Alcotest.test_case "unsheared assignment" `Quick test_shear_unsheared_assignment;
          Alcotest.test_case "resolve = phase bitwise" `Quick test_shear_resolve;
          Alcotest.test_case "source validation" `Quick test_shear_validate_sources;
        ] );
      ( "grid",
        [
          Alcotest.test_case "geometry" `Quick test_grid_geometry;
          Alcotest.test_case "wrapping" `Quick test_grid_wrapping;
          Alcotest.test_case "validation" `Quick test_grid_validation;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "source diagonal consistency" `Quick
            test_assemble_sources_diagonal_consistency;
          Alcotest.test_case "path DAE source follows the path" `Quick
            test_to_dae_source_follows_path;
          Alcotest.test_case "exact solution residual" `Quick
            test_assemble_residual_zero_for_exact_solution;
          Alcotest.test_case "jacobian matches finite differences" `Slow
            test_assemble_jacobian_matches_fd;
          Alcotest.test_case "workspace refresh bitwise" `Quick
            test_assemble_ws_bitwise_refresh;
          Alcotest.test_case "residual loads the Jacobians" `Quick
            test_residual_loads_jacobians;
          Alcotest.test_case "rebind equals fresh" `Quick test_assemble_rebind_equals_fresh;
          Alcotest.test_case "backward = hand-written reference" `Quick
            test_assemble_backward_reference;
          Alcotest.test_case "first Jacobians equal fresh builds" `Quick
            test_first_jacobians_equal_fresh;
        ] );
      ( "solver",
        [
          Alcotest.test_case "linear two-tone vs analytic" `Quick test_solver_linear_two_tone;
          Alcotest.test_case "direct = gmres-sweep" `Quick test_solver_direct_equals_gmres;
          Alcotest.test_case "residual check" `Quick test_solver_residual_check;
          Alcotest.test_case "ideal mixer -6dB" `Quick test_solver_ideal_mixer_gain;
          Alcotest.test_case "off-lattice raises" `Quick test_solver_off_lattice_raises;
          Alcotest.test_case "seed validation" `Quick test_solver_seed_validation;
          Alcotest.test_case "nonlinear detector" `Quick test_solver_nonlinear_detector;
          Alcotest.test_case "mixer gmres-sweep = direct" `Quick
            test_solver_sweep_matches_direct_mixer;
          Alcotest.test_case "bridge sweep guard" `Quick
            test_solver_bridge_sweep_guard;
          Alcotest.test_case "workspace slot reuse" `Quick
            test_solver_workspace_slot_reuse;
          Alcotest.test_case "Newton word budget" `Quick test_newton_word_budget;
          Alcotest.test_case "block sweep mixer = dense" `Quick test_block_sweep_mixer;
          Alcotest.test_case "block sweep seed = dense" `Quick test_block_sweep_seed;
          Alcotest.test_case "block sweep bridge = dense" `Quick test_block_sweep_bridge;
          Alcotest.test_case "block sweep validation" `Quick test_block_sweep_validation;
          Alcotest.test_case "block sweep refactor mixer" `Quick test_block_sweep_refactor_mixer;
          Alcotest.test_case "block sweep refactor bridge" `Quick test_block_sweep_refactor_bridge;
          Alcotest.test_case "block sweep refactor tie" `Quick test_block_sweep_refactor_tie;
          Alcotest.test_case "block sweep refactor cancel" `Quick test_block_sweep_refactor_cancel;
          Alcotest.test_case "block sweep refactor non-finite" `Quick
            test_block_sweep_refactor_nonfinite;
          Alcotest.test_case "block sweep refactor allocates nothing" `Quick
            test_block_sweep_refactor_alloc;
          Alcotest.test_case "sweep product = J·M⁻¹" `Quick test_sweep_product;
          Alcotest.test_case "kernel pins" `Quick test_kernel_pins;
          Alcotest.test_case "grid refinement" `Slow test_solver_grid_refinement_converges;
          Alcotest.test_case "central-t1 accuracy" `Slow test_solver_central_scheme_more_accurate;
        ] );
      ( "extract",
        [
          Alcotest.test_case "surface dims" `Quick test_extract_surface_dims;
          Alcotest.test_case "envelope modes" `Quick test_extract_envelope_modes;
          Alcotest.test_case "envelope times" `Quick test_extract_envelope_times;
          Alcotest.test_case "differential surface" `Quick test_extract_differential_surface;
          Alcotest.test_case "mixing spectrum" `Quick test_extract_mixing_spectrum_ideal_mixer;
          Alcotest.test_case "mixing spectrum power" `Quick test_extract_mixing_spectrum_parseval_ish;
          Alcotest.test_case "thd pure tone" `Quick test_extract_thd_pure_tone;
        ] );
      ( "envelope_follow",
        [
          Alcotest.test_case "stationary drive" `Quick test_envelope_follow_constant_drive;
          Alcotest.test_case "matches bi-periodic" `Slow test_envelope_follow_matches_biperiodic;
          Alcotest.test_case "validation" `Quick test_envelope_follow_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_shear_diagonal;
            prop_shear_lattice_roundtrip;
            prop_grid_index_bijective;
            prop_waveform_mt_diagonal;
            prop_block_sweep_random;
          ] );
    ]
