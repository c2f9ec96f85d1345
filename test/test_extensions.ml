(* Tests for the extension subsystems: AC small-signal analysis, the
   BJT model, the SPICE deck parser, and the spectral (mixed
   frequency-time) t1 scheme of the MPDE. *)

module W = Circuit.Waveform
module N = Circuit.Netlist

let pi = 4.0 *. atan 1.0

(* ---------- Ac ---------- *)

let rc_fixture () =
  Circuits.rc_lowpass ~r:1e3 ~c:1e-9 ~drive:(W.sine ~amplitude:1.0 ~freq:1e5 ()) ()

let test_ac_rc_pole () =
  let { Circuits.mna; _ } = rc_fixture () in
  let pole = 1.0 /. (2.0 *. pi *. 1e3 *. 1e-9) in
  let r = Circuit.Ac.analyze mna (Circuit.Ac.Linear { f_start = pole; f_stop = pole; points = 2 }) in
  let resp = Circuit.Ac.node_response mna r "out" in
  Alcotest.(check (float 1e-6)) "-3 dB at the pole" (-10.0 *. log10 2.0)
    (Circuit.Ac.magnitude_db resp).(0);
  Alcotest.(check (float 1e-6)) "-45 degrees" (-45.0) (Circuit.Ac.phase_deg resp).(0)

let test_ac_dc_limit () =
  let { Circuits.mna; _ } = rc_fixture () in
  let r = Circuit.Ac.analyze mna (Circuit.Ac.Linear { f_start = 1.0; f_stop = 1.0; points = 2 }) in
  let resp = Circuit.Ac.node_response mna r "out" in
  Alcotest.(check bool) "unity at DC" true
    (Float.abs (Complex.norm resp.(0) -. 1.0) < 1e-6)

let test_ac_rolloff_20db_per_decade () =
  let { Circuits.mna; _ } = rc_fixture () in
  let pole = 1.0 /. (2.0 *. pi *. 1e3 *. 1e-9) in
  let r =
    Circuit.Ac.analyze mna
      (Circuit.Ac.Linear { f_start = 100.0 *. pole; f_stop = 1000.0 *. pole; points = 2 })
  in
  let mags = Circuit.Ac.magnitude_db (Circuit.Ac.node_response mna r "out") in
  Alcotest.(check (float 0.1)) "20 dB/decade" 20.0 (mags.(0) -. mags.(1))

let test_ac_rlc_resonance () =
  let { Circuits.mna; _ } =
    Circuits.rlc_series ~r:10.0 ~l:1e-6 ~c:1e-9 ~drive:(W.dc 0.0) ()
  in
  let f0 = 1.0 /. (2.0 *. pi *. sqrt (1e-6 *. 1e-9)) in
  let sweep = Circuit.Ac.Decade { f_start = f0 /. 10.0; f_stop = f0 *. 10.0; points_per_decade = 40 } in
  let r = Circuit.Ac.analyze mna sweep in
  let mags = Circuit.Ac.magnitude_db (Circuit.Ac.node_response mna r "out") in
  (* Peak should sit near f0 with Q = (1/R)·sqrt(L/C) ≈ 3.16 → ~10 dB. *)
  let peak_idx = ref 0 in
  Array.iteri (fun k m -> if m > mags.(!peak_idx) then peak_idx := k) mags;
  let f_peak = r.Circuit.Ac.freqs.(!peak_idx) in
  Alcotest.(check bool) "peak near resonance" true (Float.abs (f_peak -. f0) /. f0 < 0.1);
  Alcotest.(check bool) "peaking magnitude" true (mags.(!peak_idx) > 8.0)

let test_ac_decade_sweep_geometry () =
  let nl = N.create () in
  N.vsource nl "v1" "in" "0" (W.dc 1.0);
  N.resistor nl "r1" "in" "out" 1e3;
  N.capacitor nl "c1" "out" "0" 1e-6;
  let r =
    Circuit.Ac.analyze (Circuit.Mna.build nl)
      (Circuit.Ac.Decade { f_start = 10.0; f_stop = 1000.0; points_per_decade = 10 })
  in
  let freqs = r.Circuit.Ac.freqs in
  Alcotest.(check int) "one response per point" (Array.length freqs)
    (Array.length r.Circuit.Ac.response);
  Alcotest.(check int) "count" 21 (Array.length freqs);
  Alcotest.(check (float 1e-6)) "start" 10.0 freqs.(0);
  Alcotest.(check (float 1e-3)) "stop" 1000.0 freqs.(20);
  (* log-uniform: constant ratio *)
  let ratio = freqs.(1) /. freqs.(0) in
  Alcotest.(check (float 1e-9)) "log spacing" ratio (freqs.(11) /. freqs.(10))

let test_ac_selected_sources () =
  (* Two sources; selecting one must halve the superposed response. *)
  let nl = N.create () in
  N.vsource nl "v1" "a" "0" (W.dc 0.0);
  N.resistor nl "r1" "a" "out" 1e3;
  N.vsource nl "v2" "b" "0" (W.dc 0.0);
  N.resistor nl "r2" "b" "out" 1e3;
  N.resistor nl "r3" "out" "0" 1e6;
  let mna = Circuit.Mna.build nl in
  let sweep = Circuit.Ac.Linear { f_start = 1.0; f_stop = 1.0; points = 2 } in
  let both = Circuit.Ac.analyze mna sweep in
  let one = Circuit.Ac.analyze ~ac_sources:[ "v1" ] mna sweep in
  let m_both = Complex.norm (Circuit.Ac.node_response mna both "out").(0) in
  let m_one = Complex.norm (Circuit.Ac.node_response mna one "out").(0) in
  Alcotest.(check bool) "superposition" true (Float.abs (m_both -. (2.0 *. m_one)) < 1e-9)

(* ---------- Bjt ---------- *)

let test_bjt_cutoff () =
  let op = Circuit.Bjt.evaluate Circuit.Bjt.default_npn ~vbe:0.0 ~vbc:(-5.0) in
  Alcotest.(check bool) "ic tiny" true (Float.abs op.Circuit.Bjt.ic < 1e-9);
  Alcotest.(check bool) "ib tiny" true (Float.abs op.Circuit.Bjt.ib < 1e-9)

let test_bjt_active_beta () =
  let p = { Circuit.Bjt.default_npn with gmin = 0.0 } in
  let op = Circuit.Bjt.evaluate p ~vbe:0.65 ~vbc:(-2.0) in
  Alcotest.(check bool) "forward active" true (op.Circuit.Bjt.ic > 0.0);
  Alcotest.(check (float 1e-6)) "ic/ib = beta_f" p.Circuit.Bjt.beta_forward
    (op.Circuit.Bjt.ic /. op.Circuit.Bjt.ib)

let test_bjt_kcl () =
  let op = Circuit.Bjt.evaluate Circuit.Bjt.default_npn ~vbe:0.7 ~vbc:0.1 in
  Alcotest.(check (float 1e-15)) "ic + ib + ie = 0" 0.0
    (op.Circuit.Bjt.ic +. op.Circuit.Bjt.ib +. op.Circuit.Bjt.ie)

let test_bjt_derivatives_fd () =
  let p = Circuit.Bjt.default_npn in
  List.iter
    (fun (vbe, vbc) ->
      let h = 1e-8 in
      let op = Circuit.Bjt.evaluate p ~vbe ~vbc in
      let ic v_be v_bc = (Circuit.Bjt.evaluate p ~vbe:v_be ~vbc:v_bc).Circuit.Bjt.ic in
      let ib v_be v_bc = (Circuit.Bjt.evaluate p ~vbe:v_be ~vbc:v_bc).Circuit.Bjt.ib in
      let check name analytic numeric =
        (* absolute floor covers derivatives that are essentially zero,
           where central differences only return cancellation noise *)
        let tol = (1e-3 *. Float.abs analytic) +. 1e-9 in
        Alcotest.(check bool)
          (Printf.sprintf "%s at (%.2f, %.2f)" name vbe vbc)
          true
          (Float.abs (analytic -. numeric) < tol)
      in
      check "dic/dvbe" op.Circuit.Bjt.d_ic_d_vbe ((ic (vbe +. h) vbc -. ic (vbe -. h) vbc) /. (2. *. h));
      check "dic/dvbc" op.Circuit.Bjt.d_ic_d_vbc ((ic vbe (vbc +. h) -. ic vbe (vbc -. h)) /. (2. *. h));
      check "dib/dvbe" op.Circuit.Bjt.d_ib_d_vbe ((ib (vbe +. h) vbc -. ib (vbe -. h) vbc) /. (2. *. h));
      check "dib/dvbc" op.Circuit.Bjt.d_ib_d_vbc ((ib vbe (vbc +. h) -. ib vbe (vbc -. h)) /. (2. *. h)))
    [ (0.65, -2.0); (0.7, 0.3); (0.2, 0.6); (0.75, 0.75) ]

let test_bjt_pnp_mirror () =
  let n = { Circuit.Bjt.default_npn with gmin = 0.0 } in
  let p = { n with polarity = Circuit.Bjt.Pnp } in
  let opn = Circuit.Bjt.evaluate n ~vbe:0.68 ~vbc:(-1.0) in
  let opp = Circuit.Bjt.evaluate p ~vbe:(-0.68) ~vbc:1.0 in
  Alcotest.(check (float 1e-15)) "pnp mirrors npn" (-.opn.Circuit.Bjt.ic) opp.Circuit.Bjt.ic

let test_bjt_no_overflow () =
  let op = Circuit.Bjt.evaluate Circuit.Bjt.default_npn ~vbe:50.0 ~vbc:50.0 in
  Alcotest.(check bool) "finite" true
    (Float.is_finite op.Circuit.Bjt.ic && Float.is_finite op.Circuit.Bjt.ib)

let test_bjt_common_emitter_dc () =
  let nl = N.create () in
  N.vsource nl "vcc" "vcc" "0" (W.dc 5.0);
  N.resistor nl "rb" "vcc" "b" 2e6;
  N.resistor nl "rc" "vcc" "c" 5e3;
  N.bjt nl "q1" ~collector:"c" ~base:"b" ~emitter:"0" Circuit.Bjt.default_npn;
  let m = Circuit.Mna.build nl in
  let x = Circuit.Dcop.solve_exn m in
  let vb = Circuit.Mna.voltage m x "b" and vc = Circuit.Mna.voltage m x "c" in
  Alcotest.(check bool) "vbe one junction drop" true (vb > 0.55 && vb < 0.85);
  (* Ib ≈ (5−0.7)/2M ≈ 2.15 µA, Ic ≈ 215 µA, drop ≈ 1.07 V. *)
  Alcotest.(check bool) "collector in active region" true (vc > 2.5 && vc < 4.8);
  let ib = (5.0 -. vb) /. 2e6 and ic = (5.0 -. vc) /. 5e3 in
  Alcotest.(check bool) "beta consistent" true
    (Float.abs ((ic /. ib) -. 100.0) < 10.0)

let test_bjt_differential_pair_transient () =
  (* Emitter-coupled pair driven differentially must steer the tail
     current between the two collectors. *)
  let nl = N.create () in
  N.vsource nl "vcc" "vcc" "0" (W.dc 5.0);
  N.vsource nl "vinp" "bp" "0" (W.sine ~offset:1.5 ~amplitude:0.2 ~freq:1e3 ());
  N.vsource nl "vinm" "bm" "0" (W.sine ~offset:1.5 ~amplitude:(-0.2) ~freq:1e3 ());
  N.resistor nl "rcp" "vcc" "cp" 5e3;
  N.resistor nl "rcm" "vcc" "cm" 5e3;
  N.bjt nl "q1" ~collector:"cp" ~base:"bp" ~emitter:"e" Circuit.Bjt.default_npn;
  N.bjt nl "q2" ~collector:"cm" ~base:"bm" ~emitter:"e" Circuit.Bjt.default_npn;
  N.resistor nl "re" "e" "0" 5e3;
  let m = Circuit.Mna.build nl in
  let r = Circuit.Transient.run ~mna:m ~t_stop:2e-3 ~steps:400 () in
  let d = Circuit.Transient.differential_waveform m r "cp" "cm" in
  let swing =
    Array.fold_left Float.max neg_infinity d -. Array.fold_left Float.min infinity d
  in
  Alcotest.(check bool) "differential output swings" true (swing > 1.0);
  (* Antisymmetric drive → output symmetric around 0. *)
  Alcotest.(check bool) "balanced around zero" true
    (Float.abs (Linalg.Vec.mean d) < 0.2 *. swing)

(* ---------- Spice_parser ---------- *)

let test_parse_value_suffixes () =
  (* Each value as a resistance in a one-line deck. *)
  let resistance s =
    let deck = Circuit.Spice_parser.parse_string ("values\nR1 a 0 " ^ s ^ "\n.end\n") in
    match Circuit.Netlist.devices deck.Circuit.Spice_parser.netlist with
    | [ Circuit.Device.Resistor { resistance; _ } ] -> resistance
    | _ -> Alcotest.failf "%S: expected one resistor" s
  in
  let check s expected = Alcotest.(check (float 1e-9)) s expected (resistance s) in
  check "1k" 1e3;
  check "2.2u" 2.2e-6;
  check "100meg" 1e8;
  check "5" 5.0;
  check "1e3" 1e3;
  check "1.5e-2" 0.015;
  check "10p" 1e-11;
  check "3n" 3e-9;
  check "0.5m" 5e-4;
  check "2G" 2e9;
  check "4f" 4e-15;
  Alcotest.(check bool) "garbage rejected" true
    (match resistance "abc" with
    | _ -> false
    | exception Circuit.Spice_parser.Parse_error _ -> true)

let test_parse_simple_deck () =
  let deck =
    Circuit.Spice_parser.parse_string
      "voltage divider\nV1 in 0 DC 10\nR1 in mid 1k\nR2 mid 0 1k\n.end\n"
  in
  Alcotest.(check string) "title" "voltage divider" deck.Circuit.Spice_parser.title;
  Alcotest.(check int) "devices" 3
    (List.length (Circuit.Netlist.devices deck.Circuit.Spice_parser.netlist));
  let m = Circuit.Mna.build deck.Circuit.Spice_parser.netlist in
  let x = Circuit.Dcop.solve_exn m in
  Alcotest.(check (float 1e-6)) "divider" 5.0 (Circuit.Mna.voltage m x "mid")

let test_parse_sources () =
  let deck =
    Circuit.Spice_parser.parse_string
      "sources\n\
       V1 a 0 SIN(0.5 2 1k)\n\
       V2 b 0 PULSE(0 5 0 1u 1u 498u 1m)\n\
       R1 a 0 1k\n\
       R2 b 0 1k\n"
  in
  let devices = Circuit.Netlist.devices deck.Circuit.Spice_parser.netlist in
  let wave name =
    List.find_map
      (fun d ->
        match d with
        | Circuit.Device.Voltage_source { name = n; waveform; _ } when n = name ->
            Some waveform
        | _ -> None)
      devices
    |> Option.get
  in
  (* SIN: offset 0.5, amplitude 2 at 1 kHz. *)
  Alcotest.(check (float 1e-9)) "sin at t=0" 0.5 (W.eval (wave "V1") 0.0);
  Alcotest.(check (float 1e-9)) "sin quarter period" 2.5 (W.eval (wave "V1") 0.25e-3);
  (* PULSE: high during the flat top. *)
  Alcotest.(check (float 1e-6)) "pulse top" 5.0 (W.eval (wave "V2") 0.25e-3);
  Alcotest.(check (float 1e-6)) "pulse low" 0.0 (W.eval (wave "V2") 0.75e-3)

let test_parse_models_and_continuation () =
  let deck =
    Circuit.Spice_parser.parse_string
      "models\n\
       D1 a 0 dd\n\
       Ra in a 1k\n\
       Vin in 0 DC 5\n\
       .model dd D(is=1e-12\n\
       + n=1.5)\n"
  in
  let devices = Circuit.Netlist.devices deck.Circuit.Spice_parser.netlist in
  let diode_params =
    List.find_map
      (fun d ->
        match d with Circuit.Device.Diode { params; _ } -> Some params | _ -> None)
      devices
    |> Option.get
  in
  Alcotest.(check (float 1e-20)) "is" 1e-12 diode_params.Circuit.Diode.saturation_current;
  Alcotest.(check (float 1e-9)) "n" 1.5 diode_params.Circuit.Diode.ideality

let test_parse_mosfet_and_bjt () =
  let deck =
    Circuit.Spice_parser.parse_string
      "actives\n\
       M1 d g 0 0 nmod\n\
       Q1 c b 0 qmod\n\
       Vd d 0 DC 2\nVg g 0 DC 1\nVc c 0 DC 2\nVb b 0 DC 0.7\n\
       .model nmod NMOS(vto=0.6 kp=3m lambda=0.01)\n\
       .model qmod NPN(is=2e-15 bf=80)\n"
  in
  let devices = Circuit.Netlist.devices deck.Circuit.Spice_parser.netlist in
  let has_mosfet =
    List.exists
      (fun d ->
        match d with
        | Circuit.Device.Mosfet { params; _ } -> params.Circuit.Mosfet.vt0 = 0.6
        | _ -> false)
      devices
  in
  let has_bjt =
    List.exists
      (fun d ->
        match d with
        | Circuit.Device.Bjt { params; _ } -> params.Circuit.Bjt.beta_forward = 80.0
        | _ -> false)
      devices
  in
  Alcotest.(check bool) "mosfet parsed with model" true has_mosfet;
  Alcotest.(check bool) "bjt parsed with model" true has_bjt

let test_parse_errors () =
  (match Circuit.Spice_parser.parse_string "t\nR1 a 0\n" with
  | exception Circuit.Spice_parser.Parse_error { line = 2; _ } -> ()
  | exception Circuit.Spice_parser.Parse_error { line; _ } ->
      Alcotest.failf "wrong line: %d" line
  | _ -> Alcotest.fail "expected parse error");
  (match Circuit.Spice_parser.parse_string "t\nD1 a 0 nomodel\nR1 a 0 1\n" with
  | exception Circuit.Spice_parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "unknown model must fail");
  match Circuit.Spice_parser.parse_string "t\nX1 a b sub\n" with
  | exception Circuit.Spice_parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "unsupported element must fail"

let test_parse_warnings () =
  let deck = Circuit.Spice_parser.parse_string "t\nR1 a 0 1k\n.tran 1u 1m\n.op\n" in
  Alcotest.(check int) "two warnings" 2 (List.length deck.Circuit.Spice_parser.warnings)

let test_parse_deck_runs_mpde () =
  (* End-to-end: parse a two-tone detector deck and solve its MPDE. *)
  let deck =
    Circuit.Spice_parser.parse_string
      "two-tone detector\n\
       V1 in 0 SIN(0 1 1meg) SIN(0 1 1.02meg)\n\
       D1 in out dd\n\
       Rl out 0 10k\n\
       Cl out 0 120p\n\
       .model dd D(is=1e-14)\n"
  in
  let mna = Circuit.Mna.build deck.Circuit.Spice_parser.netlist in
  let shear = Mpde.Shear.make ~fast_freq:1e6 ~slow_freq:20e3 in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna in
  Alcotest.(check bool) "mpde on parsed deck" true sol.Mpde.Solver.stats.converged;
  let vout = Mpde.Extract.surface_of_node sol mna "out" in
  Alcotest.(check bool) "beat detected" true
    (Mpde.Extract.t2_harmonic_amplitude ~values:vout ~harmonic:1 > 0.05)

(* ---------- Spectral_t1 MPDE scheme ---------- *)

let two_tone_rc () =
  Circuits.rc_lowpass ~r:1e3 ~c:100e-12
    ~drive:
      (W.sum (W.sine ~amplitude:1.0 ~freq:1e6 ()) (W.sine ~amplitude:1.0 ~freq:1.001e6 ()))
    ()

let test_spectral_scheme_accuracy () =
  let { Circuits.mna; _ } = two_tone_rc () in
  let shear = Mpde.Shear.make ~fast_freq:1e6 ~slow_freq:1e3 in
  let analytic f t =
    let w = 2.0 *. pi *. f in
    let wrc = w *. 1e3 *. 100e-12 in
    1.0 /. sqrt (1.0 +. (wrc *. wrc)) *. sin ((w *. t) -. atan wrc)
  in
  let err scheme =
    let options =
      { Mpde.Solver.default_options with scheme; linear_solver = Mpde.Solver.Direct }
    in
    let sol = Mpde.Solver.solve_mna ~options ~shear ~n1:17 ~n2:9 mna in
    Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
    (* Evaluate on the grid itself (no interpolation error): compare the
       i-th fast sample at j = 0 against the analytic quasi-periodic
       response at (t1_i, t2 = 0) — for this linear circuit the exact
       x̂(t1,t2) = resp_f1(t1) + resp_f2 sheared, so instead check along
       the diagonal with dense sampling. *)
    let vout = Mpde.Extract.surface_of_node sol mna "out" in
    let _, series =
      Mpde.Extract.diagonal sol ~values:vout ~t_start:0.0 ~t_stop:1e-6 ~samples:80
    in
    let worst = ref 0.0 in
    Array.iteri
      (fun k s ->
        let t = 1e-6 *. float_of_int k /. 79.0 in
        worst := Float.max !worst (Float.abs (s -. analytic 1e6 t -. analytic 1.001e6 t)))
      series;
    !worst
  in
  let e_backward = err Mpde.Assemble.Backward in
  let e_spectral = err Mpde.Assemble.Spectral_t1 in
  Alcotest.(check bool)
    (Printf.sprintf "spectral beats backward (%.4f vs %.4f)" e_spectral e_backward)
    true
    (e_spectral < e_backward /. 2.0)

let test_spectral_requires_odd_n1 () =
  let { Circuits.mna; _ } = two_tone_rc () in
  let shear = Mpde.Shear.make ~fast_freq:1e6 ~slow_freq:1e3 in
  let options =
    { Mpde.Solver.default_options with scheme = Mpde.Assemble.Spectral_t1 }
  in
  match Mpde.Solver.solve_mna ~options ~shear ~n1:16 ~n2:8 mna with
  | exception Invalid_argument _ -> ()
  | sol ->
      (* Newton may capture the Invalid_argument as a solver failure. *)
      Alcotest.(check bool) "must not converge silently" true
        (not sol.Mpde.Solver.stats.converged)

let test_spectral_gmres_converges () =
  let { Circuits.mna; _ } = two_tone_rc () in
  let shear = Mpde.Shear.make ~fast_freq:1e6 ~slow_freq:1e3 in
  let options = { Mpde.Solver.default_options with scheme = Mpde.Assemble.Spectral_t1 } in
  let sol = Mpde.Solver.solve_mna ~options ~shear ~n1:17 ~n2:9 mna in
  Alcotest.(check bool) "gmres path converges" true sol.Mpde.Solver.stats.converged;
  Alcotest.(check bool) "residual small" true
    (Mpde.Solver.residual_norm_check sol < 1e-7)

(* ---------- Numeric.Spectral ---------- *)

let test_spectral_diff_shared () =
  let d = Numeric.Spectral.diff_matrix 7 1.0 in
  let w = 2.0 *. pi in
  let samples = Array.init 7 (fun k -> cos (w *. float_of_int k /. 7.0)) in
  let deriv = Linalg.Mat.mul_vec d samples in
  Array.iteri
    (fun k v ->
      Alcotest.(check (float 1e-9)) "derivative" (-.w *. sin (w *. float_of_int k /. 7.0)) v)
    deriv

let test_spectral_diff_validation () =
  Alcotest.check_raises "even"
    (Invalid_argument "Spectral.diff_matrix: n must be odd and at least 3") (fun () ->
      ignore (Numeric.Spectral.diff_matrix 4 1.0))

let () =
  Alcotest.run "extensions"
    [
      ( "ac",
        [
          Alcotest.test_case "rc pole" `Quick test_ac_rc_pole;
          Alcotest.test_case "dc limit" `Quick test_ac_dc_limit;
          Alcotest.test_case "rolloff" `Quick test_ac_rolloff_20db_per_decade;
          Alcotest.test_case "rlc resonance" `Quick test_ac_rlc_resonance;
          Alcotest.test_case "decade sweep" `Quick test_ac_decade_sweep_geometry;
          Alcotest.test_case "source selection" `Quick test_ac_selected_sources;
        ] );
      ( "bjt",
        [
          Alcotest.test_case "cutoff" `Quick test_bjt_cutoff;
          Alcotest.test_case "active beta" `Quick test_bjt_active_beta;
          Alcotest.test_case "kcl" `Quick test_bjt_kcl;
          Alcotest.test_case "derivatives" `Quick test_bjt_derivatives_fd;
          Alcotest.test_case "pnp mirror" `Quick test_bjt_pnp_mirror;
          Alcotest.test_case "no overflow" `Quick test_bjt_no_overflow;
          Alcotest.test_case "common emitter dc" `Quick test_bjt_common_emitter_dc;
          Alcotest.test_case "diff pair transient" `Quick test_bjt_differential_pair_transient;
        ] );
      ( "spice parser",
        [
          Alcotest.test_case "value suffixes" `Quick test_parse_value_suffixes;
          Alcotest.test_case "simple deck" `Quick test_parse_simple_deck;
          Alcotest.test_case "sources" `Quick test_parse_sources;
          Alcotest.test_case "models + continuation" `Quick test_parse_models_and_continuation;
          Alcotest.test_case "mosfet and bjt" `Quick test_parse_mosfet_and_bjt;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "warnings" `Quick test_parse_warnings;
          Alcotest.test_case "deck to mpde" `Quick test_parse_deck_runs_mpde;
        ] );
      ( "spectral t1",
        [
          Alcotest.test_case "accuracy" `Quick test_spectral_scheme_accuracy;
          Alcotest.test_case "odd n1 required" `Quick test_spectral_requires_odd_n1;
          Alcotest.test_case "gmres path" `Quick test_spectral_gmres_converges;
          Alcotest.test_case "shared diff matrix" `Quick test_spectral_diff_shared;
          Alcotest.test_case "diff matrix validation" `Quick test_spectral_diff_validation;
        ] );
    ]
