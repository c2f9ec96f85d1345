(* Tests for FFT, Newton, continuation, integrators, interpolation. *)

module Vec = Linalg.Vec
module Fft = Numeric.Fft
module Newton = Numeric.Newton
module Integrator = Numeric.Integrator
module Interp = Numeric.Interp

let check_float = Alcotest.(check (float 1e-9))
let pi = 4.0 *. atan 1.0

(* ---------- Fft ---------- *)

(* O(n²) reference DFT; the phase index is reduced mod n so the
   reference itself stays accurate at the sweep's lengths. *)
let dft_naive (x : Linalg.Cvec.t) =
  let n = Array.length x in
  Array.init n (fun k ->
      let s = ref Complex.zero in
      for j = 0 to n - 1 do
        let phase = -2.0 *. pi *. float_of_int (k * j mod n) /. float_of_int n in
        s := Complex.add !s (Complex.mul x.(j) { Complex.re = cos phase; im = sin phase })
      done;
      !s)

(* The inverse transform by conjugation, ifft x = conj (fft (conj x)) / n:
   a round trip through it checks the forward transform against itself. *)
let ifft x =
  let scale = 1.0 /. float_of_int (max (Array.length x) 1) in
  Array.map
    (fun (z : Complex.t) -> { Complex.re = z.re *. scale; im = -.z.im *. scale })
    (Fft.fft (Array.map Complex.conj x))

let test_fft_pow2_matches_dft () =
  let x = Linalg.Cvec.init 16 (fun k ->
      { Complex.re = sin (0.7 *. float_of_int k); im = cos (1.3 *. float_of_int k) }) in
  Alcotest.(check bool) "radix-2 = naive DFT" true
    (Support.cvec_approx_equal ~tol:1e-9 (Fft.fft x) (dft_naive x))

let test_fft_bluestein_matches_dft () =
  (* Non-power-of-two length exercises the chirp-z path. *)
  let x = Linalg.Cvec.init 12 (fun k ->
      { Complex.re = float_of_int (k mod 5); im = -.float_of_int (k mod 3) }) in
  Alcotest.(check bool) "bluestein = naive DFT" true
    (Support.cvec_approx_equal ~tol:1e-8 (Fft.fft x) (dft_naive x))

let test_fft_prime_length () =
  let x = Linalg.Cvec.init 13 (fun k -> { Complex.re = exp (-0.1 *. float_of_int k); im = 0.0 }) in
  Alcotest.(check bool) "prime length" true
    (Support.cvec_approx_equal ~tol:1e-8 (Fft.fft x) (dft_naive x))

let test_fft_roundtrip () =
  let x = Linalg.Cvec.init 21 (fun k ->
      { Complex.re = float_of_int k; im = float_of_int (k * k mod 7) }) in
  Alcotest.(check bool) "ifft (fft x) = x" true
    (Support.cvec_approx_equal ~tol:1e-8 (ifft (Fft.fft x)) x)

let test_fft_impulse () =
  let x = Array.make 8 Complex.zero in
  x.(0) <- Complex.one;
  let y = Fft.fft x in
  Array.iter (fun (z : Complex.t) -> check_float "flat spectrum" 1.0 z.Complex.re) y

let test_fft_is_power_of_two () =
  (* Lengths on both sides of the radix-2 / Bluestein switch. *)
  Alcotest.(check int) "empty" 0 (Array.length (Fft.fft [||]));
  List.iter
    (fun n ->
      let x = Linalg.Cvec.init n (fun k -> { Complex.re = cos (0.9 *. float_of_int k); im = 0.5 }) in
      if not (Support.cvec_approx_equal ~tol:1e-9 (Fft.fft x) (dft_naive x)) then
        Alcotest.failf "n = %d differs from the DFT" n)
    [ 1; 2; 3; 63; 64; 65 ]

let test_real_harmonics_sine () =
  let n = 64 in
  let x = Array.init n (fun k ->
      1.5 +. (2.0 *. sin (2.0 *. pi *. 3.0 *. float_of_int k /. float_of_int n))) in
  let h = Fft.real_harmonics x in
  check_float "dc" 1.5 (fst h.(0));
  Alcotest.(check (float 1e-8)) "harmonic 3 amplitude" 2.0 (fst h.(3));
  Alcotest.(check bool) "other harmonics tiny" true (fst h.(2) < 1e-9);
  Alcotest.(check (float 1e-8)) "amplitude_at" 2.0 (Fft.amplitude_at x 3)

let test_fft_parseval () =
  let n = 32 in
  let x = Linalg.Cvec.init n (fun k -> { Complex.re = cos (0.3 *. float_of_int k); im = 0.0 }) in
  let y = Fft.fft x in
  let energy v = Array.fold_left (fun a z -> a +. (Complex.norm z ** 2.0)) 0.0 v in
  Alcotest.(check (float 1e-6)) "parseval" (energy x) (energy y /. float_of_int n)

(* The lengths the disparity sweep's metrics transform: 653 and 1130
   go through Bluestein (radix-2 inner lengths 2048 and 4096), 1024 is
   radix-2 directly. *)
let sweep_lengths = [ 653; 1024; 1130 ]

let sweep_signal n =
  Linalg.Cvec.init n (fun k ->
      let t = float_of_int k in
      { Complex.re = sin (0.37 *. t) +. (0.25 *. cos (2.9 *. t)); im = 0.5 *. cos (1.1 *. t) })

let max_err a b =
  let m = ref 0.0 in
  Array.iteri (fun k z -> m := Float.max !m (Complex.norm (Complex.sub z b.(k)))) a;
  !m

let test_fft_sweep_lengths_vs_dft () =
  List.iter
    (fun n ->
      let x = sweep_signal n in
      let l1 = Array.fold_left (fun a z -> a +. Complex.norm z) 0.0 x in
      let err = max_err (Fft.fft x) (dft_naive x) in
      if err > 1e-12 *. l1 then
        Alcotest.failf "n = %d: |fft − dft| = %.3e > 1e-12·Σ|x| = %.3e" n err (1e-12 *. l1))
    sweep_lengths

let test_fft_sweep_lengths_roundtrip () =
  List.iter
    (fun n ->
      let x = sweep_signal n in
      let peak = Array.fold_left (fun m z -> Float.max m (Complex.norm z)) 0.0 x in
      let err = max_err (ifft (Fft.fft x)) x in
      if err > 1e-14 *. peak then
        Alcotest.failf "n = %d: |ifft (fft x) − x| = %.3e > 1e-14·max|x| = %.3e" n err
          (1e-14 *. peak))
    sweep_lengths

(* A pure second harmonic has a fundamental at the roundoff floor: its
   THD is reported as for an exact zero, not as a ratio of roundoff. *)
let test_thd_pure_second_harmonic () =
  let n = 64 in
  let x = Array.init n (fun k -> cos (2.0 *. 2.0 *. pi *. float_of_int k /. float_of_int n)) in
  let h = Fft.real_harmonics x in
  Alcotest.(check bool) "fundamental is roundoff" true (fst h.(1) < 1e-12);
  Alcotest.(check (float 0.0)) "thd = infinity" infinity
    (Fft.thd ~peak:(Linalg.Vec.norm_inf x) h);
  (* A small but real fundamental is still a ratio. *)
  let y = Array.mapi (fun k v -> v +. (1e-6 *. cos (2.0 *. pi *. float_of_int k /. float_of_int n))) x in
  Alcotest.(check (float 1e-3)) "1e-6 fundamental" 1e6
    (Fft.thd ~peak:(Linalg.Vec.norm_inf y) (Fft.real_harmonics y))

(* The Nyquist harmonic of an even length is one bin with no mirror:
   the alternating signal (−1)^j is a cosine of amplitude 1 at
   k = n/2, on radix-2 lengths and on Bluestein ones. *)
let test_real_harmonics_nyquist () =
  List.iter
    (fun n ->
      let x = Array.init n (fun j -> if j land 1 = 0 then 1.0 else -1.0) in
      let what = Printf.sprintf "n = %d" n in
      Alcotest.(check (float 1e-12)) (what ^ ": amplitude") 1.0 (fst (Fft.real_harmonics x).(n / 2));
      Alcotest.(check (float 1e-12)) (what ^ ": amplitude_at") 1.0 (Fft.amplitude_at x (n / 2)))
    [ 8; 10; 24; 30; 64 ]

(* ... so THD counts it once: a unit fundamental plus 0.1 of the
   Nyquist harmonic reads 0.1. *)
let test_thd_nyquist_once () =
  List.iter
    (fun n ->
      let x =
        Array.init n (fun j ->
            cos (2.0 *. pi *. float_of_int j /. float_of_int n)
            +. (0.1 *. if j land 1 = 0 then 1.0 else -1.0))
      in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "n = %d: thd" n)
        0.1
        (Fft.thd ~peak:(Linalg.Vec.norm_inf x) (Fft.real_harmonics x)))
    [ 8; 24; 30; 64 ]

(* The plans a domain keeps change no bit: a length transformed again
   from its plan, and again after a long length has evicted it, gives
   the floats of a fresh domain, which keeps none. *)
let test_fft_plans_bitwise () =
  let signal n =
    Array.init n (fun k ->
        { Complex.re = sin (0.37 *. float_of_int k); im = cos (1.3 *. float_of_int k) })
  in
  let bits n =
    Array.map
      (fun (z : Complex.t) -> (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im))
      (Fft.fft (signal n))
  in
  let lengths = [ 7565; 1000; 30; 24; 64 ] in
  let transforms () = List.map bits lengths in
  let fresh = Domain.join (Domain.spawn transforms) in
  let check what got =
    Alcotest.(check bool) what true (List.for_all2 (fun a b -> a = b) fresh got)
  in
  check "first" (transforms ());
  check "from the plans" (transforms ());
  ignore (Fft.fft (signal 150_001));
  check "after eviction" (transforms ())

(* A single-time run computes its output spectrum once, and its THD is
   Fft.thd of the one-period trace's harmonics, bit for bit. *)
let test_engine_one_spectrum_per_result () =
  let problem =
    Engine.Problem.make ~label:"rectifier" ~output:"out" ~f_fast:1e6 ~fd:1e4 (fun () ->
        Circuits.diode_rectifier ~drive:(Circuit.Waveform.sine ~amplitude:2.0 ~freq:1e6 ()) ())
  in
  let engine =
    Engine.make ~options:{ Engine.Options.default with steps_per_period = 100 } Engine.Shooting
  in
  Telemetry.enable ();
  let r = Fun.protect ~finally:Telemetry.disable (fun () -> Engine.run problem engine) in
  let counters =
    match r.Engine.Result.telemetry with
    | Some s -> s.Telemetry.Summary.counters
    | None -> Alcotest.fail "no telemetry summary"
  in
  Alcotest.(check (option int)) "fft.transforms" (Some 1) (List.assoc_opt "fft.transforms" counters);
  let values = r.Engine.Result.waveform.Engine.Result.values in
  let one_period = Array.sub values 0 (Array.length values - 1) in
  let thd = List.assoc "thd" r.Engine.Result.metrics in
  Alcotest.(check bool) "thd finite and positive" true (Float.is_finite thd && thd > 0.0);
  Alcotest.(check int64) "thd = Fft.thd bitwise"
    (Int64.bits_of_float
       (Fft.thd ~peak:(Linalg.Vec.norm_inf one_period) (Fft.real_harmonics one_period)))
    (Int64.bits_of_float thd)

(* ---------- Newton ---------- *)

let scalar_problem f df =
  {
    Newton.residual_into = (fun x r -> r.(0) <- f x.(0));
    solve_into = (fun x r d -> d.(0) <- r.(0) /. df x.(0));
  }

let test_newton_sqrt () =
  let problem = scalar_problem (fun x -> (x *. x) -. 2.0) (fun x -> 2.0 *. x) in
  let x, stats = Newton.solve problem [| 1.0 |] in
  Alcotest.(check bool) "converged" true (Newton.converged stats);
  Alcotest.(check (float 1e-8)) "sqrt 2" (sqrt 2.0) x.(0)

let test_newton_quadratic_convergence () =
  let problem = scalar_problem (fun x -> (x *. x) -. 2.0) (fun x -> 2.0 *. x) in
  let _, stats = Newton.solve problem [| 1.5 |] in
  Alcotest.(check bool) "few iterations" true (stats.Newton.iterations <= 6)

let test_newton_damping_rescues () =
  (* atan has a tiny derivative far out: undamped Newton diverges from
     x0 = 10, damped Newton must converge. *)
  let problem = scalar_problem atan (fun x -> 1.0 /. (1.0 +. (x *. x))) in
  let x, stats = Newton.solve problem [| 10.0 |] in
  Alcotest.(check bool) "converged" true (Newton.converged stats);
  Alcotest.(check (float 1e-8)) "root" 0.0 x.(0);
  Alcotest.(check bool) "used backtracking" true (stats.Newton.backtracks > 0)

let test_newton_2d () =
  (* x² + y² = 4, x = y → x = y = √2 *)
  let problem =
    {
      Newton.residual_into =
        (fun v r ->
          r.(0) <- (v.(0) *. v.(0)) +. (v.(1) *. v.(1)) -. 4.0;
          r.(1) <- v.(0) -. v.(1));
      solve_into =
        (fun v r d ->
          let j =
            Linalg.Mat.of_arrays [| [| 2.0 *. v.(0); 2.0 *. v.(1) |]; [| 1.0; -1.0 |] |]
          in
          Array.blit (Linalg.Lu.solve_dense j r) 0 d 0 2);
    }
  in
  let x, stats = Newton.solve problem [| 1.0; 2.0 |] in
  Alcotest.(check bool) "converged" true (Newton.converged stats);
  Alcotest.(check (float 1e-7)) "x" (sqrt 2.0) x.(0)

let test_newton_max_iterations () =
  let problem = scalar_problem (fun x -> exp x) (fun x -> exp x) in
  (* No root: must stop with a non-converged outcome. *)
  let _, stats =
    Newton.solve ~options:{ Newton.default_options with max_iterations = 5 } problem [| 0.0 |]
  in
  Alcotest.(check bool) "not converged" true (not (Newton.converged stats))

let test_newton_history_ring () =
  (* F(x) = x with a 1% Newton step: every iteration is accepted and
     the residual never reaches tolerance. *)
  let problem =
    {
      Newton.residual_into = (fun x r -> Array.blit x 0 r 0 (Array.length x));
      solve_into = (fun _ r d -> Array.iteri (fun i v -> d.(i) <- 0.01 *. v) r);
    }
  in
  let history max_iterations =
    let _, stats =
      Newton.solve ~options:{ Newton.default_options with max_iterations } problem [| 1.0 |]
    in
    Alcotest.(check int) "iterations" max_iterations stats.Newton.iterations;
    stats.Newton.residual_history
  in
  (* The residuals the solver records, by the same float operations. *)
  let expected total =
    let x = ref 1.0 in
    Array.init total (fun k ->
        if k > 0 then x := !x +. (-1.0 *. (0.01 *. !x));
        Float.abs !x)
  in
  let all = expected 601 in
  Alcotest.(check (array (float 0.0))) "600 iterations keep the last 512"
    (Array.sub all (601 - 512) 512) (history 600);
  Alcotest.(check (array (float 0.0))) "3 iterations keep all 4" (Array.sub all 0 4) (history 3)

let test_newton_solver_failure_capture () =
  let problem =
    {
      Newton.residual_into = (fun x r -> r.(0) <- x.(0) -. 1.0);
      solve_into = (fun _ _ _ -> failwith "boom");
    }
  in
  let _, stats = Newton.solve problem [| 0.0 |] in
  (match stats.Newton.outcome with
  | Newton.Solver_failure _ -> ()
  | Newton.Converged | Newton.Stalled | Newton.Max_iterations | Newton.Diverged
  | Newton.Exhausted _ ->
      Alcotest.fail "expected Solver_failure");
  Alcotest.(check bool) "not converged" true (not (Newton.converged stats))

let test_newton_already_converged () =
  let problem = scalar_problem (fun x -> x) (fun _ -> 1.0) in
  let _, stats = Newton.solve problem [| 0.0 |] in
  Alcotest.(check int) "zero iterations" 0 stats.Newton.iterations

(* [min_iterations = 1] takes one step from a start that already meets
   the tolerance, also when the step cannot lower a zero residual. *)
let test_newton_min_iterations () =
  let options = { Newton.default_options with min_iterations = 1 } in
  let problem = scalar_problem (fun x -> (x *. x) -. 2.0) (fun x -> 2.0 *. x) in
  let x, stats = Newton.solve ~options problem [| sqrt 2.0 +. 1e-11 |] in
  Alcotest.(check int) "one step" 1 stats.Newton.iterations;
  Alcotest.(check bool) "converged" true (Newton.converged stats);
  Alcotest.(check (float 1e-14)) "sqrt 2" (sqrt 2.0) x.(0);
  let _, stats = Newton.solve ~options (scalar_problem (fun x -> x) (fun _ -> 1.0)) [| 0.0 |] in
  Alcotest.(check int) "one step from the root" 1 stats.Newton.iterations;
  Alcotest.(check bool) "still converged" true (Newton.converged stats)

let test_newton_on_iteration_callback () =
  let calls = ref 0 in
  let problem = scalar_problem (fun x -> (x *. x) -. 4.0) (fun x -> 2.0 *. x) in
  let _ = Newton.solve ~on_iteration:(fun _ _ _ -> incr calls) problem [| 1.0 |] in
  Alcotest.(check bool) "callback fired" true (!calls > 0)

(* A reused workspace: every solve on it matches a fresh [Newton.solve]
   bit for bit, including after a solve with another iteration cap
   (which resizes the history ring), and allocates none of the loop's
   buffers. With 64 unknowns one buffer is 65 words; what a solve does
   allocate is a few boxed floats for the telemetry and axpy calls. *)
let test_newton_workspace_reuse () =
  let n = 64 in
  (* x_i² = i + 2, componentwise: callbacks that allocate nothing *)
  let problem =
    {
      Newton.residual_into =
        (fun x r ->
          for i = 0 to n - 1 do
            r.(i) <- (x.(i) *. x.(i)) -. float_of_int (i + 2)
          done);
      solve_into =
        (fun x r d ->
          for i = 0 to n - 1 do
            d.(i) <- r.(i) /. (2.0 *. x.(i))
          done);
    }
  in
  let ws = Newton.workspace n in
  let check_against_fresh ?options x0 =
    let outcome = Newton.solve_in ?options ws problem x0 in
    let x, stats = Newton.solve ?options problem x0 in
    Alcotest.(check bool) "same outcome" true (outcome = stats.Newton.outcome);
    Alcotest.(check int) "same iterations" stats.Newton.iterations (Newton.iterations ws);
    Alcotest.(check bool) "same iterate, bit for bit" true
      (Array.for_all2
         (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
         x (Newton.iterate ws))
  in
  check_against_fresh (Array.make n 1.0);
  check_against_fresh
    ~options:{ Newton.default_options with max_iterations = 3 }
    (Array.init n (fun i -> 1.0 +. float_of_int i));
  check_against_fresh (Array.make n 3.0);
  let x0 = Array.make n 1.0 in
  let solves = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to solves do
    ignore (Newton.solve_in ws problem x0)
  done;
  let per_solve = (Gc.minor_words () -. before) /. float_of_int solves in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per solve < one 65-word buffer" per_solve)
    true (per_solve < 65.0);
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Newton.solve_in: dimension mismatch") (fun () ->
      ignore (Newton.solve_in ws problem [| 1.0 |]))

(* ---------- Continuation ---------- *)

let test_continuation_reaches_target () =
  (* x³ + x = λ·10: track from the trivial solution to the λ = 1 root 2. *)
  let problem_at lambda =
    scalar_problem
      (fun x -> (x ** 3.0) +. x -. (10.0 *. lambda))
      (fun x -> (3.0 *. x *. x) +. 1.0)
  in
  let x, stats = Numeric.Continuation.trace ~problem_at ~x0:[| 0.0 |] () in
  Alcotest.(check bool) "converged" true stats.Numeric.Continuation.converged;
  Alcotest.(check (float 1e-6)) "root" 2.0 x.(0);
  Alcotest.(check bool) "stepped" true (stats.Numeric.Continuation.steps_taken >= 2)

let test_continuation_adaptive_step () =
  let problem_at lambda = scalar_problem (fun x -> x -. lambda) (fun _ -> 1.0) in
  let _, stats =
    Numeric.Continuation.trace ~initial_step:0.05 ~problem_at ~x0:[| 0.0 |] ()
  in
  (* Easy path: steps double, so far fewer than 20 steps are needed. *)
  Alcotest.(check bool) "step growth" true (stats.Numeric.Continuation.steps_taken < 12)

(* ---------- Dae / Integrator ---------- *)

(* Scalar test DAE: C dx/dt + x/R = b(t). *)
let rc_dae ~r ~c ~b =
  Numeric.Dae.linear
    ~g:(Sparse.Csr.of_coo (Sparse.Coo.of_triplets 1 1 [ (0, 0, 1.0 /. r) ]))
    ~c:(Sparse.Csr.of_coo (Sparse.Coo.of_triplets 1 1 [ (0, 0, c) ]))
    ~source_into:(fun t out -> out.(0) <- b t)

let test_dae_residual () =
  (* At the DC point x = r·b the residual qdot + f(x) − b(t) vanishes. *)
  let dae = rc_dae ~r:2.0 ~c:1.0 ~b:(fun _ -> 1.0) in
  let x = [| 2.0 |] in
  let f = [| nan |] and q = [| nan |] and b = [| nan |] in
  Support.eval_qf dae x ~q ~f;
  dae.Numeric.Dae.source_into 0.0 b;
  check_float "residual" 0.0 (f.(0) -. b.(0))

let test_be_step_decay () =
  (* dx/dt = -x (R=C=1, b=0): BE gives x1 = x0/(1+h). *)
  let dae = rc_dae ~r:1.0 ~c:1.0 ~b:(fun _ -> 0.0) in
  let r =
    Integrator.implicit_step ~method_:Integrator.Backward_euler
      ~workspace:(Integrator.workspace dae) ~t_next:0.1 ~h:0.1
      ~x_prev:[| 1.0 |] ()
  in
  Alcotest.(check bool) "converged" true r.Integrator.converged;
  Alcotest.(check (float 1e-10)) "BE decay" (1.0 /. 1.1) r.Integrator.x.(0)

let test_trap_second_order () =
  let dae = rc_dae ~r:1.0 ~c:1.0 ~b:(fun _ -> 0.0) in
  let run method_ steps =
    let tr = Integrator.transient ~method_ ~dae ~x0:[| 1.0 |] ~t0:0.0 ~t1:1.0 ~steps () in
    Float.abs (tr.Integrator.states.(steps).(0) -. exp (-1.0))
  in
  let be_err = run Integrator.Backward_euler 100 in
  let tr_err = run Integrator.Trapezoidal 100 in
  Alcotest.(check bool) "trapezoidal beats BE" true (tr_err < be_err /. 10.0)

let test_transient_sine_response () =
  (* RC driven at the pole frequency: amplitude = 1/√2, phase −45°. *)
  let rc = 1.0 /. (2.0 *. pi *. 1000.0) in
  let dae = rc_dae ~r:1.0 ~c:rc ~b:(fun t -> sin (2.0 *. pi *. 1000.0 *. t)) in
  let tr =
    Integrator.transient ~method_:Integrator.Trapezoidal ~dae ~x0:[| 0.0 |] ~t0:0.0
      ~t1:10e-3 ~steps:4000 ()
  in
  let k = 3900 in
  let t = tr.Integrator.times.(k) in
  let expected = (1.0 /. sqrt 2.0) *. sin ((2.0 *. pi *. 1000.0 *. t) -. (pi /. 4.0)) in
  Alcotest.(check (float 2e-3)) "steady sine" expected tr.Integrator.states.(k).(0)

(* ---------- collocation kernel ---------- *)

(* A scalar RC (q = c·x, f = x/r) at three points: the residual is the
   operator applied to the charges, plus f − b, plus the anchor step. *)
let colloc_dae = rc_dae ~r:2.0 ~c:0.5 ~b:(fun t -> 1.0 +. t)

let colloc_ops =
  let d =
    Linalg.Mat.of_arrays
      [| [| 0.0; 1.0; -1.0 |]; [| -1.0; 0.0; 1.0 |]; [| 1.0; -1.0; 0.0 |] |]
  in
  [ ("backward", Numeric.Collocation.backward_difference ~points:3 ~h:0.25);
    ("central", Numeric.Collocation.central_difference ~points:3 ~h:0.25);
    ("matrix", Numeric.Collocation.of_matrix d) ]

let test_collocation_residual () =
  let times = [| 0.0; 1.0; 2.0 |] and x = [| 1.0; 2.0; 4.0 |] in
  let q k = 0.5 *. x.(k) and rest k = (x.(k) /. 2.0) -. (1.0 +. times.(k)) in
  let expected name k =
    match name with
    | "backward" -> ((q k -. q ((k + 2) mod 3)) /. 0.25) +. rest k
    | "central" -> ((q ((k + 1) mod 3) -. q ((k + 2) mod 3)) /. 0.5) +. rest k
    | _ -> q ((k + 1) mod 3) -. q ((k + 2) mod 3) +. rest k
  in
  List.iter
    (fun (name, op) ->
      let p = Numeric.Collocation.problem colloc_dae op ~times in
      let r = Array.make 3 0.0 in
      p.Numeric.Newton.residual_into x r;
      Array.iteri
        (fun k v -> check_float (Printf.sprintf "%s point %d" name k) (expected name k) v)
        r;
      let prev = [| [| 0.0 |]; [| 1.0 |]; [| 1.0 |] |] in
      let p = Numeric.Collocation.problem ~anchor:(0.5, prev) colloc_dae op ~times in
      let r = Array.make 3 0.0 in
      p.Numeric.Newton.residual_into x r;
      Array.iteri
        (fun k v ->
          check_float (Printf.sprintf "%s anchored point %d" name k)
            (expected name k +. ((q k -. (0.5 *. prev.(k).(0))) /. 0.5))
            v)
        r)
    colloc_ops

let test_collocation_newton_exact () =
  (* The problem is linear, so one exact Newton step lands on it. *)
  let times = [| 0.0; 1.0; 2.0 |] in
  List.iter
    (fun (name, op) ->
      List.iter
        (fun anchor ->
          let p = Numeric.Collocation.problem ?anchor colloc_dae op ~times in
          let x0 = Numeric.Collocation.replicate 3 [| 0.0 |] in
          let r0 = Array.make 3 0.0 and delta = Array.make 3 0.0 and r1 = Array.make 3 0.0 in
          p.Numeric.Newton.residual_into x0 r0;
          p.Numeric.Newton.solve_into x0 r0 delta;
          let x1 = Array.mapi (fun i v -> v -. delta.(i)) x0 in
          p.Numeric.Newton.residual_into x1 r1;
          Array.iter (fun v -> check_float (name ^ " solved") 0.0 v) r1)
        [ None; Some (0.5, Numeric.Collocation.states 1 [| 1.0; 2.0; 3.0 |]) ])
    colloc_ops

let test_collocation_lower_triangular () =
  (* Only an operator that can be marched point by point qualifies:
     backward differences at every size, never the central difference
     (not even at two points, where it has no diagonal) nor a dense
     spectral matrix. *)
  List.iter
    (fun points ->
      let h = 0.25 in
      Alcotest.(check bool)
        (Printf.sprintf "backward, %d points" points)
        true
        (Numeric.Collocation.lower_triangular
           (Numeric.Collocation.backward_difference ~points ~h));
      Alcotest.(check bool)
        (Printf.sprintf "central, %d points" points)
        false
        (Numeric.Collocation.lower_triangular
           (Numeric.Collocation.central_difference ~points ~h)))
    [ 2; 3; 4; 7 ];
  Alcotest.(check bool) "spectral" false
    (Numeric.Collocation.lower_triangular
       (Numeric.Collocation.of_matrix (Numeric.Spectral.diff_matrix 5 1.0)))

let test_transient_sample () =
  let dae = rc_dae ~r:1.0 ~c:1.0 ~b:(fun _ -> 0.0) in
  let tr = Integrator.transient ~dae ~x0:[| 1.0 |] ~t0:0.0 ~t1:0.5 ~steps:5 () in
  let s = Integrator.sample tr 0 in
  Alcotest.(check int) "length" 6 (Array.length s);
  check_float "initial" 1.0 s.(0)

(* One workspace across a transient (in-place refresh, frozen-pivot
   refactors, the step-k factor reused at step k+1) against a fresh
   workspace per step (fresh factors only), and against a workspace
   whose load reports drift at every iterate, so that it rebuilds
   G and C from [jacobians] each time, as on a pattern change. *)
let test_step_workspace_paths () =
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier
      ~drive:(Circuit.Waveform.sine ~amplitude:2.0 ~freq:1e3 ())
      ()
  in
  let dae = Circuit.Mna.dae mna in
  let x0 = Circuit.Dcop.solve_exn mna in
  let steps = 200 and t1 = 2e-3 in
  let h = t1 /. float_of_int steps in
  let shared = Integrator.transient ~dae ~x0 ~t0:0.0 ~t1 ~steps () in
  let slow =
    Integrator.transient
      ~dae:
        {
          dae with
          Numeric.Dae.load =
            (fun () ->
              let load = dae.Numeric.Dae.load () in
              fun x ~q ~f ~g ~c -> load x ~q ~f ~g ~c && false);
        }
      ~x0 ~t0:0.0 ~t1 ~steps ()
  in
  let x = ref x0 in
  for k = 1 to steps do
    let r =
      Integrator.implicit_step ~method_:Integrator.Backward_euler
        ~workspace:(Integrator.workspace dae) ~t_next:(float_of_int k *. h) ~h ~x_prev:!x ()
    in
    Alcotest.(check bool) "fresh step converged" true r.Integrator.converged;
    x := r.Integrator.x;
    let close a b = Support.vec_approx_equal ~tol:1e-9 a b in
    Alcotest.(check bool) (Printf.sprintf "step %d: shared = fresh" k) true
      (close shared.Integrator.states.(k) !x);
    Alcotest.(check bool) (Printf.sprintf "step %d: rebuilt every iterate = fresh" k) true
      (close slow.Integrator.states.(k) !x)
  done

(* ---------- Interp ---------- *)

let test_linear_periodic_wraps () =
  let s = [| 0.0; 1.0 |] in
  check_float "wrap" 0.5 (Interp.linear_periodic s 0.75);
  check_float "negative phase" 0.5 (Interp.linear_periodic s (-0.25))

let test_linear_periodic_reproduces_samples () =
  let s = [| 3.0; -1.0; 2.0; 7.0 |] in
  Array.iteri
    (fun k v -> check_float "sample" v (Interp.linear_periodic s (float_of_int k /. 4.0)))
    s

let test_bilinear_periodic () =
  let grid = [| [| 0.0; 1.0 |]; [| 2.0; 3.0 |] |] in
  check_float "node" 0.0 (Interp.bilinear_periodic grid 0.0 0.0);
  check_float "centre" 1.5 (Interp.bilinear_periodic grid 0.25 0.25);
  check_float "wrap" 1.5 (Interp.bilinear_periodic grid 0.75 0.75)

let test_resample_periodic () =
  let s = [| 1.0; 3.0 |] in
  let r = Interp.resample_periodic s 4 in
  check_float "kept" 1.0 r.(0);
  check_float "interpolated" 2.0 r.(1)

(* ---------- properties ---------- *)

let prop_fft_linearity =
  QCheck.Test.make ~count:50 ~name:"fft: linearity"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 16) (float_range (-5.0) 5.0))
            (array_size (return 16) (float_range (-5.0) 5.0))))
    (fun (a, b) ->
      let ca = Linalg.Cvec.of_real a and cb = Linalg.Cvec.of_real b in
      let lhs = Fft.fft (Array.map2 Complex.add ca cb) in
      let rhs = Array.map2 Complex.add (Fft.fft ca) (Fft.fft cb) in
      Support.cvec_approx_equal ~tol:1e-7 lhs rhs)

let prop_fft_roundtrip =
  QCheck.Test.make ~count:50 ~name:"fft: ifft ∘ fft = id (arbitrary length)"
    QCheck.(
      make Gen.(int_range 2 40 >>= fun n -> array_size (return n) (float_range (-10.0) 10.0)))
    (fun a ->
      let c = Linalg.Cvec.of_real a in
      Support.cvec_approx_equal ~tol:1e-7 (ifft (Fft.fft c)) c)

let prop_interp_periodic_shift =
  QCheck.Test.make ~count:100 ~name:"interp: periodic in its argument"
    QCheck.(
      make
        Gen.(pair (array_size (return 7) (float_range (-3.0) 3.0)) (float_range 0.0 1.0)))
    (fun (s, u) ->
      Float.abs (Interp.linear_periodic s u -. Interp.linear_periodic s (u +. 1.0)) < 1e-9)

let prop_newton_linear_one_step =
  QCheck.Test.make ~count:100 ~name:"newton: linear systems solve in one iteration"
    QCheck.(make Gen.(pair (float_range 0.5 10.0) (float_range (-20.0) 20.0)))
    (fun (slope, target) ->
      let problem = scalar_problem (fun x -> (slope *. x) -. target) (fun _ -> slope) in
      let x, stats = Newton.solve problem [| 5.0 |] in
      Newton.converged stats
      && stats.Newton.iterations <= 1
      && Float.abs (x.(0) -. (target /. slope)) < 1e-6)

let prop_bilinear_reproduces_nodes =
  QCheck.Test.make ~count:80 ~name:"interp: bilinear reproduces grid nodes"
    QCheck.(
      make
        Gen.(
          pair (int_range 2 6) (int_range 2 6) >>= fun (n1, n2) ->
          array_size (return (n1 * n2)) (float_range (-5.0) 5.0) >>= fun data ->
          return (n1, n2, data)))
    (fun (n1, n2, data) ->
      let grid = Array.init n1 (fun i -> Array.init n2 (fun j -> data.((i * n2) + j))) in
      let ok = ref true in
      for i = 0 to n1 - 1 do
        for j = 0 to n2 - 1 do
          let v =
            Interp.bilinear_periodic grid
              (float_of_int i /. float_of_int n1)
              (float_of_int j /. float_of_int n2)
          in
          if Float.abs (v -. grid.(i).(j)) > 1e-9 then ok := false
        done
      done;
      !ok)

let prop_be_stable_any_step =
  QCheck.Test.make ~count:60 ~name:"integrator: BE unconditionally stable on decay"
    QCheck.(make Gen.(float_range 0.01 100.0))
    (fun h ->
      let dae = rc_dae ~r:1.0 ~c:1.0 ~b:(fun _ -> 0.0) in
      let r =
        Integrator.implicit_step ~method_:Integrator.Backward_euler
      ~workspace:(Integrator.workspace dae) ~t_next:h ~h
          ~x_prev:[| 1.0 |] ()
      in
      r.Integrator.converged && Float.abs r.Integrator.x.(0) <= 1.0)

let () =
  Alcotest.run "numeric"
    [
      ( "fft",
        [
          Alcotest.test_case "pow2 vs DFT" `Quick test_fft_pow2_matches_dft;
          Alcotest.test_case "bluestein vs DFT" `Quick test_fft_bluestein_matches_dft;
          Alcotest.test_case "prime length" `Quick test_fft_prime_length;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "is_power_of_two" `Quick test_fft_is_power_of_two;
          Alcotest.test_case "real harmonics" `Quick test_real_harmonics_sine;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "sweep lengths vs DFT" `Quick test_fft_sweep_lengths_vs_dft;
          Alcotest.test_case "sweep lengths roundtrip" `Quick test_fft_sweep_lengths_roundtrip;
          Alcotest.test_case "thd pure second harmonic" `Quick test_thd_pure_second_harmonic;
          Alcotest.test_case "nyquist harmonic" `Quick test_real_harmonics_nyquist;
          Alcotest.test_case "thd counts nyquist once" `Quick test_thd_nyquist_once;
          Alcotest.test_case "plans bitwise" `Quick test_fft_plans_bitwise;
          Alcotest.test_case "one spectrum per result" `Quick test_engine_one_spectrum_per_result;
        ] );
      ( "newton",
        [
          Alcotest.test_case "sqrt(2)" `Quick test_newton_sqrt;
          Alcotest.test_case "quadratic convergence" `Quick test_newton_quadratic_convergence;
          Alcotest.test_case "damping rescues atan" `Quick test_newton_damping_rescues;
          Alcotest.test_case "2-d system" `Quick test_newton_2d;
          Alcotest.test_case "max iterations" `Quick test_newton_max_iterations;
          Alcotest.test_case "history ring" `Quick test_newton_history_ring;
          Alcotest.test_case "solver failure capture" `Quick test_newton_solver_failure_capture;
          Alcotest.test_case "already converged" `Quick test_newton_already_converged;
          Alcotest.test_case "min iterations" `Quick test_newton_min_iterations;
          Alcotest.test_case "iteration callback" `Quick test_newton_on_iteration_callback;
          Alcotest.test_case "workspace reuse" `Quick test_newton_workspace_reuse;
        ] );
      ( "continuation",
        [
          Alcotest.test_case "reaches target" `Quick test_continuation_reaches_target;
          Alcotest.test_case "adaptive step growth" `Quick test_continuation_adaptive_step;
        ] );
      ( "integrator",
        [
          Alcotest.test_case "dae residual" `Quick test_dae_residual;
          Alcotest.test_case "BE single step" `Quick test_be_step_decay;
          Alcotest.test_case "trapezoidal order" `Quick test_trap_second_order;
          Alcotest.test_case "sine response" `Quick test_transient_sine_response;
          Alcotest.test_case "sample" `Quick test_transient_sample;
          Alcotest.test_case "step workspace paths" `Quick test_step_workspace_paths;
        ] );
      ( "collocation",
        [
          Alcotest.test_case "operator residuals" `Quick test_collocation_residual;
          Alcotest.test_case "linear in one Newton step" `Quick test_collocation_newton_exact;
          Alcotest.test_case "lower-triangular up to the wrap" `Quick
            test_collocation_lower_triangular;
        ] );
      ( "interp",
        [
          Alcotest.test_case "periodic wrap" `Quick test_linear_periodic_wraps;
          Alcotest.test_case "reproduces samples" `Quick test_linear_periodic_reproduces_samples;
          Alcotest.test_case "bilinear periodic" `Quick test_bilinear_periodic;
          Alcotest.test_case "resample" `Quick test_resample_periodic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fft_linearity;
            prop_fft_roundtrip;
            prop_interp_periodic_shift;
            prop_newton_linear_one_step;
            prop_bilinear_reproduces_nodes;
            prop_be_stable_any_step;
          ] );
    ]
