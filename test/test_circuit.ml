(* Tests for the SPICE-like circuit substrate: waveforms, device
   models, netlist, MNA assembly, DC operating point, transient. *)

module W = Circuit.Waveform
module N = Circuit.Netlist

let check_float = Alcotest.(check (float 1e-9))
let pi = 4.0 *. atan 1.0

(* ---------- Waveform ---------- *)

let test_waveform_dc () = check_float "dc" 2.5 (W.eval (W.dc 2.5) 123.0)

let test_waveform_sine () =
  let w = W.sine ~offset:1.0 ~amplitude:2.0 ~freq:10.0 () in
  check_float "t=0" 1.0 (W.eval w 0.0);
  Alcotest.(check (float 1e-9)) "quarter period" 3.0 (W.eval w 0.025)

let test_waveform_cosine_phase () =
  let w = W.cosine ~phase:0.25 ~amplitude:1.0 ~freq:1.0 () in
  (* cos(2π(t + 1/4)) at t=0 is 0. *)
  Alcotest.(check (float 1e-12)) "phase shift" 0.0 (W.eval w 0.0)

let test_waveform_pulse_levels () =
  let w = W.pulse ~rise_frac:0.0 ~fall_frac:0.0 ~low:0.0 ~high:5.0 ~duty:0.5 ~freq:1.0 () in
  check_float "high" 5.0 (W.eval w 0.25);
  check_float "low" 0.0 (W.eval w 0.75)

let test_waveform_pulse_ramps () =
  let w = W.pulse ~rise_frac:0.2 ~fall_frac:0.2 ~low:0.0 ~high:1.0 ~duty:0.5 ~freq:1.0 () in
  check_float "mid rise" 0.5 (W.eval w 0.1);
  check_float "top" 1.0 (W.eval w 0.3)

let test_waveform_bits () =
  let bits = [| true; false; true; true |] in
  (* An on-off-keyed carrier at 0 Hz is the bare NRZ bit shape. *)
  let w =
    W.modulated_carrier ~transition_frac:0.0 ~amplitude:1.0 ~carrier_freq:0.0 ~bits
      ~symbol_freq:4.0 ()
  in
  (* symbol_freq 4 Hz and 4 bits → pattern period 1 s, symbol 0.25 s. *)
  check_float "bit0" 1.0 (W.eval w 0.1);
  check_float "bit1" 0.0 (W.eval w 0.35);
  check_float "bit2" 1.0 (W.eval w 0.6);
  check_float "wraps" 1.0 (W.eval w 1.1)

let test_waveform_bits_smoothing () =
  let bits = [| true; false |] in
  let w =
    W.modulated_carrier ~transition_frac:0.5 ~amplitude:1.0 ~carrier_freq:0.0 ~bits
      ~symbol_freq:2.0 ()
  in
  (* Halfway through the transition window the level is halfway. *)
  let mid = W.eval w 0.625 in
  Alcotest.(check (float 1e-9)) "raised-cosine midpoint" 0.5 mid

let test_waveform_modulated_carrier_diag () =
  let bits = [| true; true; false; true |] in
  let w =
    W.modulated_carrier ~transition_frac:0.0 ~amplitude:2.0 ~carrier_freq:100.0 ~bits
      ~symbol_freq:4.0 ()
  in
  (* At t=0.1 (bit 0 high): 2·cos(2π·100·0.1) = 2·cos(20π) = 2. *)
  Alcotest.(check (float 1e-9)) "on bit" 2.0 (W.eval w 0.1);
  (* During bit 2 (off) the carrier is suppressed. *)
  Alcotest.(check (float 1e-9)) "off bit" 0.0 (W.eval w 0.6)

let test_waveform_sum_scale () =
  let w = W.sum (W.dc 1.0) (W.scale 2.0 (W.dc 3.0)) in
  check_float "sum/scale" 7.0 (W.eval w 0.0)

let test_waveform_frequencies () =
  let w = W.sum (W.sine ~amplitude:1.0 ~freq:10.0 ()) (W.cosine ~amplitude:1.0 ~freq:20.0 ()) in
  let fs = List.sort compare (W.frequencies w) in
  Alcotest.(check (list (float 1e-12))) "distinct freqs" [ 10.0; 20.0 ] fs

let test_waveform_eval_with_custom_phase () =
  let w = W.sine ~amplitude:1.0 ~freq:50.0 () in
  (* Freeze the phase at a quarter period regardless of frequency. *)
  let v = W.eval_with ~phase_of:(fun _ -> 0.25) w in
  check_float "custom phase" 1.0 v

let test_waveform_sampled () =
  let w =
    { W.dc = 0.0; terms = [ { W.gain = 1.0; factors = [ { W.shape = W.Sampled [| 1.0; 3.0 |]; freq = 1.0 } ] } ] }
  in
  check_float "sample 0" 1.0 (W.eval w 0.0);
  check_float "interp" 2.0 (W.eval w 0.25)

(* ---------- Diode model ---------- *)

let test_diode_reverse () =
  let p = Circuit.Diode.default in
  Alcotest.(check bool) "reverse ≈ -Is" true
    (Float.abs (Support.diode_current p (-1.0) +. p.Circuit.Diode.saturation_current +. 1e-12)
     < 1e-11)

let test_diode_forward_monotone () =
  let p = Circuit.Diode.default in
  let i1 = Support.diode_current p 0.6 and i2 = Support.diode_current p 0.7 in
  Alcotest.(check bool) "monotone" true (i2 > i1 && i1 > 0.0)

let test_diode_no_overflow () =
  let p = Circuit.Diode.default in
  let i = Support.diode_current p 100.0 in
  Alcotest.(check bool) "finite at 100 V" true (Float.is_finite i);
  Alcotest.(check bool) "conductance finite" true
    (Float.is_finite (Support.diode_conductance p 100.0))

let test_diode_conductance_consistent () =
  (* g must be the derivative of i, including across the continuation
     point. *)
  let p = Circuit.Diode.default in
  List.iter
    (fun v ->
      let h = 1e-7 in
      let numeric =
        (Support.diode_current p (v +. h) -. Support.diode_current p (v -. h)) /. (2.0 *. h)
      in
      let analytic = Support.diode_conductance p v in
      Alcotest.(check bool)
        (Printf.sprintf "derivative at %.2f" v)
        true
        (Float.abs (numeric -. analytic) /. Float.max 1e-12 analytic < 1e-4))
    [ -0.5; 0.3; 0.6; 0.9; 1.5; 2.0 ]

let test_diode_charge () =
  let p = { Circuit.Diode.default with junction_cap = 1e-12 } in
  check_float "charge" 1e-12 (Support.diode_charge p 1.0)

(* ---------- MOSFET model ---------- *)

let test_mosfet_cutoff () =
  let p = Circuit.Mosfet.default_nmos in
  let op = Circuit.Mosfet.evaluate p ~vgs:0.2 ~vds:1.0 in
  Alcotest.(check bool) "cutoff ids ≈ 0" true (Float.abs op.Circuit.Mosfet.ids < 1e-6);
  Alcotest.(check bool) "region" true (op.Circuit.Mosfet.region = `Cutoff)

let test_mosfet_saturation_current () =
  let p = { Circuit.Mosfet.default_nmos with lambda = 0.0 } in
  let op = Circuit.Mosfet.evaluate p ~vgs:1.5 ~vds:2.0 in
  (* ids = kp/2 (vgs-vt)² = 1e-3 *)
  Alcotest.(check (float 1e-8)) "square law" 1e-3 op.Circuit.Mosfet.ids;
  Alcotest.(check bool) "region" true (op.Circuit.Mosfet.region = `Saturation)

let test_mosfet_triode () =
  let p = { Circuit.Mosfet.default_nmos with lambda = 0.0; gds_min = 0.0 } in
  let op = Circuit.Mosfet.evaluate p ~vgs:1.5 ~vds:0.5 in
  (* kp((vov)vds − vds²/2) = 2e-3(0.5 − 0.125) = 7.5e-4 *)
  Alcotest.(check (float 1e-9)) "triode current" 7.5e-4 op.Circuit.Mosfet.ids;
  Alcotest.(check bool) "region" true (op.Circuit.Mosfet.region = `Triode)

let test_mosfet_symmetry () =
  (* Swapping drain and source negates the current. *)
  let p = { Circuit.Mosfet.default_nmos with gds_min = 0.0 } in
  let fwd = Circuit.Mosfet.evaluate p ~vgs:1.2 ~vds:0.3 in
  let rev = Circuit.Mosfet.evaluate p ~vgs:(1.2 -. 0.3) ~vds:(-0.3) in
  Alcotest.(check (float 1e-12)) "antisymmetric" (-.fwd.Circuit.Mosfet.ids)
    rev.Circuit.Mosfet.ids

let test_mosfet_derivative_consistency () =
  let p = Circuit.Mosfet.default_nmos in
  let cases = [ (1.5, 2.0); (1.5, 0.4); (0.3, 1.0); (1.2, -0.5); (0.8, 0.2) ] in
  List.iter
    (fun (vgs, vds) ->
      let h = 1e-7 in
      let ids v_gs v_ds = (Circuit.Mosfet.evaluate p ~vgs:v_gs ~vds:v_ds).Circuit.Mosfet.ids in
      let op = Circuit.Mosfet.evaluate p ~vgs ~vds in
      let gm_num = (ids (vgs +. h) vds -. ids (vgs -. h) vds) /. (2.0 *. h) in
      let gds_num = (ids vgs (vds +. h) -. ids vgs (vds -. h)) /. (2.0 *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "gm at (%.2f, %.2f)" vgs vds)
        true
        (Float.abs (gm_num -. op.Circuit.Mosfet.gm) < 1e-6);
      Alcotest.(check bool)
        (Printf.sprintf "gds at (%.2f, %.2f)" vgs vds)
        true
        (Float.abs (gds_num -. op.Circuit.Mosfet.gds) < 1e-6))
    cases

let test_pmos_mirror () =
  let n = { Circuit.Mosfet.default_nmos with gds_min = 0.0 } in
  let p = { n with polarity = Circuit.Mosfet.Pmos } in
  let opn = Circuit.Mosfet.evaluate n ~vgs:1.2 ~vds:1.5 in
  let opp = Circuit.Mosfet.evaluate p ~vgs:(-1.2) ~vds:(-1.5) in
  Alcotest.(check (float 1e-12)) "pmos mirrors nmos" (-.opn.Circuit.Mosfet.ids)
    opp.Circuit.Mosfet.ids

(* ---------- Netlist ---------- *)

let test_netlist_ground_aliases () =
  let nl = N.create () in
  N.resistor nl "r1" "a" "0" 1.0;
  N.resistor nl "r2" "a" "gnd" 1.0;
  N.resistor nl "r3" "a" "GND" 1.0;
  Alcotest.(check int) "one non-ground node" 1 (N.num_nodes nl);
  List.iter
    (fun g -> Alcotest.(check (option int)) g (Some 0) (N.find_node nl g))
    [ "0"; "gnd"; "GND" ]

let test_netlist_interning () =
  let nl = N.create () in
  N.resistor nl "r1" "a" "0" 1.0;
  N.capacitor nl "c1" "a" "b" 1.0;
  Alcotest.(check int) "count" 2 (N.num_nodes nl);
  match N.find_node nl "a" with
  | None -> Alcotest.fail "node a not interned"
  | Some a ->
      Alcotest.(check string) "name" "a" (N.node_name nl a);
      Alcotest.(check bool) "same index" true
        (List.exists
           (function
             | Circuit.Device.Capacitor { n_plus; _ } -> n_plus = a
             | _ -> false)
           (N.devices nl))

let test_netlist_duplicate_device () =
  let nl = N.create () in
  N.resistor nl "r1" "a" "0" 1.0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Netlist.add: duplicate device name \"r1\"") (fun () ->
      N.resistor nl "r1" "b" "0" 2.0)

let test_netlist_find () =
  let nl = N.create () in
  N.resistor nl "r1" "x" "0" 1.0;
  Alcotest.(check bool) "found" true (N.find_node nl "x" <> None);
  Alcotest.(check bool) "missing" true (N.find_node nl "y" = None)

(* ---------- Mna ---------- *)

let divider () =
  let nl = N.create () in
  N.vsource nl "v1" "in" "0" (W.dc 10.0);
  N.resistor nl "r1" "in" "mid" 1e3;
  N.resistor nl "r2" "mid" "0" 1e3;
  Circuit.Mna.build nl

let test_mna_size () =
  let m = divider () in
  (* two nodes + one branch current *)
  Alcotest.(check int) "size" 3 (Circuit.Mna.size m);
  Alcotest.(check int) "nodes" 2 (Circuit.Mna.num_nodes m)

let test_mna_unknown_names () =
  let m = divider () in
  let names = Circuit.Mna.unknown_names m in
  Alcotest.(check string) "branch label" "i(v1)" names.(2)

let test_mna_divider_dc () =
  let m = divider () in
  let x = Circuit.Dcop.solve_exn m in
  Alcotest.(check (float 1e-6)) "vin" 10.0 (Circuit.Mna.voltage m x "in");
  Alcotest.(check (float 1e-6)) "vmid" 5.0 (Circuit.Mna.voltage m x "mid");
  (* Branch current: 10 V across 2 kΩ = 5 mA flowing out of the source. *)
  Alcotest.(check (float 1e-9)) "branch current" (-5e-3)
    x.(Circuit.Mna.branch_index m "v1")

let test_mna_current_source () =
  let nl = N.create () in
  (* 1 mA pushed into node "a" (current flows + → − through the source,
     entering the circuit at n_minus). *)
  N.isource nl "i1" "0" "a" (W.dc 1e-3);
  N.resistor nl "r1" "a" "0" 2e3;
  let m = Circuit.Mna.build nl in
  let x = Circuit.Dcop.solve_exn m in
  Alcotest.(check (float 1e-6)) "ohm's law" 2.0 (Circuit.Mna.voltage m x "a")

let test_mna_vccs () =
  let nl = N.create () in
  N.vsource nl "vc" "c" "0" (W.dc 2.0);
  N.vccs nl "g1" ~out_plus:"0" ~out_minus:"o" ~in_plus:"c" ~in_minus:"0" 1e-3;
  N.resistor nl "ro" "o" "0" 1e3;
  let m = Circuit.Mna.build nl in
  let x = Circuit.Dcop.solve_exn m in
  (* i = gm·v_c = 2 mA delivered into node o through 1 kΩ → 2 V. *)
  Alcotest.(check (float 1e-6)) "vccs gain" 2.0 (Circuit.Mna.voltage m x "o")

let test_mna_multiplier_dc () =
  let nl = N.create () in
  N.vsource nl "va" "a" "0" (W.dc 3.0);
  N.vsource nl "vb" "b" "0" (W.dc 4.0);
  N.multiplier nl "m" ~out_plus:"0" ~out_minus:"o" ~a_plus:"a" ~a_minus:"0" ~b_plus:"b"
    ~b_minus:"0" 1e-3;
  N.resistor nl "ro" "o" "0" 1e3;
  let m = Circuit.Mna.build nl in
  let x = Circuit.Dcop.solve_exn m in
  Alcotest.(check (float 1e-5)) "product" 12.0 (Circuit.Mna.voltage m x "o")

let test_mna_differential_voltage () =
  let m = divider () in
  let x = Circuit.Dcop.solve_exn m in
  Alcotest.(check (float 1e-6)) "diff" 5.0 (Circuit.Mna.differential_voltage m x "in" "mid")

let test_mna_source_with_phase () =
  let nl = N.create () in
  N.vsource nl "v1" "a" "0" (W.sine ~amplitude:1.0 ~freq:100.0 ());
  N.resistor nl "r1" "a" "0" 1.0;
  let m = Circuit.Mna.build nl in
  let b = Array.make (Circuit.Mna.size m) 0.0 in
  Circuit.Mna.sources_into m ~freqs:[| 100.0 |] ~phases:[| 0.25 |] b 0;
  Alcotest.(check (float 1e-12)) "warped source" 1.0 b.(Circuit.Mna.branch_index m "v1")

let test_mna_source_frequencies () =
  let nl = N.create () in
  N.vsource nl "v1" "a" "0" (W.sine ~amplitude:1.0 ~freq:100.0 ());
  N.isource nl "i1" "a" "0" (W.cosine ~amplitude:1.0 ~freq:250.0 ());
  N.resistor nl "r1" "a" "0" 1.0;
  let m = Circuit.Mna.build nl in
  let fs = List.sort compare (Circuit.Mna.source_frequencies m) in
  Alcotest.(check (list (float 1e-12))) "freqs" [ 100.0; 250.0 ] fs

let test_mna_jacobian_matches_fd () =
  (* Numerical check of ∂f/∂x against the stamped G on a nonlinear
     circuit containing a diode, a MOSFET and a multiplier. *)
  let nl = N.create () in
  N.vsource nl "vd" "vdd" "0" (W.dc 3.0);
  N.resistor nl "r1" "vdd" "d" 2e3;
  N.mosfet nl "m1" ~drain:"d" ~gate:"g" ~source:"0" Circuit.Mosfet.default_nmos;
  N.resistor nl "rg" "vdd" "g" 1e4;
  N.diode nl "d1" "d" "a" Circuit.Diode.default;
  N.resistor nl "ra" "a" "0" 5e3;
  N.multiplier nl "mx" ~out_plus:"a" ~out_minus:"0" ~a_plus:"d" ~a_minus:"0" ~b_plus:"g"
    ~b_minus:"0" 1e-4;
  let m = Circuit.Mna.build nl in
  let dae = Circuit.Mna.dae m in
  let n = Circuit.Mna.size m in
  let x = Array.init n (fun i -> 0.3 +. (0.17 *. float_of_int i)) in
  let g, _ = dae.Numeric.Dae.jacobians x in
  let f0 = Array.make n 0.0 and fj = Array.make n 0.0 and q = Array.make n 0.0 in
  Support.eval_qf dae x ~q ~f:f0;
  let h = 1e-7 in
  for j = 0 to n - 1 do
    let xj = Array.copy x in
    xj.(j) <- xj.(j) +. h;
    Support.eval_qf dae xj ~q ~f:fj;
    for i = 0 to n - 1 do
      let numeric = (fj.(i) -. f0.(i)) /. h in
      let stamped = Sparse.Csr.get g i j in
      if Float.abs (numeric -. stamped) > 1e-4 *. Float.max 1.0 (Float.abs stamped) then
        Alcotest.failf "G mismatch at (%d,%d): fd=%.6g stamped=%.6g" i j numeric stamped
    done
  done

let test_mna_charge_jacobian_matches_fd () =
  let nl = N.create () in
  N.vsource nl "v1" "in" "0" (W.dc 1.0);
  N.capacitor nl "c1" "in" "mid" 1e-9;
  N.capacitor nl "c2" "mid" "0" 2e-9;
  N.inductor nl "l1" "mid" "out" 1e-6;
  N.resistor nl "r1" "out" "0" 50.0;
  let m = Circuit.Mna.build nl in
  let dae = Circuit.Mna.dae m in
  let n = Circuit.Mna.size m in
  let x = Array.init n (fun i -> 0.1 *. float_of_int (i + 1)) in
  let _, c = dae.Numeric.Dae.jacobians x in
  let q0 = Array.make n 0.0 and qj = Array.make n 0.0 and f = Array.make n 0.0 in
  Support.eval_qf dae x ~q:q0 ~f;
  let h = 1e-7 in
  for j = 0 to n - 1 do
    let xj = Array.copy x in
    xj.(j) <- xj.(j) +. h;
    Support.eval_qf dae xj ~q:qj ~f;
    for i = 0 to n - 1 do
      let numeric = (qj.(i) -. q0.(i)) /. h in
      let stamped = Sparse.Csr.get c i j in
      if Float.abs (numeric -. stamped) > 1e-6 *. Float.max 1e-9 (Float.abs stamped) then
        Alcotest.failf "C mismatch at (%d,%d): fd=%.6g stamped=%.6g" i j numeric stamped
    done
  done

(* ---------- Dcop ---------- *)

let test_dcop_diode_drop () =
  let nl = N.create () in
  N.vsource nl "v1" "a" "0" (W.dc 5.0);
  N.resistor nl "r1" "a" "d" 1e3;
  N.diode nl "d1" "d" "0" Circuit.Diode.default;
  let m = Circuit.Mna.build nl in
  let report = Circuit.Dcop.solve m in
  Alcotest.(check bool) "converged" true report.Circuit.Dcop.converged;
  let vd = Circuit.Mna.voltage m report.Circuit.Dcop.x "d" in
  Alcotest.(check bool) "diode drop plausible" true (vd > 0.6 && vd < 0.8);
  (* Verify KCL: i through resistor equals the diode current. *)
  let ir = (5.0 -. vd) /. 1e3 in
  let id = Support.diode_current Circuit.Diode.default vd in
  Alcotest.(check bool) "KCL" true (Float.abs (ir -. id) < 1e-6)

let test_dcop_inductor_short () =
  let nl = N.create () in
  N.vsource nl "v1" "a" "0" (W.dc 1.0);
  N.inductor nl "l1" "a" "b" 1e-3;
  N.resistor nl "r1" "b" "0" 100.0;
  let m = Circuit.Mna.build nl in
  let x = Circuit.Dcop.solve_exn m in
  (* At DC the inductor is a short: vb = va, i = 10 mA. *)
  Alcotest.(check (float 1e-6)) "short" 1.0 (Circuit.Mna.voltage m x "b");
  Alcotest.(check (float 1e-8)) "current" 0.01 x.(Circuit.Mna.branch_index m "l1")

let test_dcop_floating_gate_gmin () =
  (* A capacitively-coupled node has no DC path: gmin must pin it. *)
  let nl = N.create () in
  N.vsource nl "v1" "a" "0" (W.dc 1.0);
  N.capacitor nl "c1" "a" "f" 1e-12;
  N.resistor nl "r1" "a" "0" 1e3;
  let m = Circuit.Mna.build nl in
  let report = Circuit.Dcop.solve m in
  Alcotest.(check bool) "converged" true report.Circuit.Dcop.converged;
  Alcotest.(check (float 1e-6)) "floats to 0" 0.0
    (Circuit.Mna.voltage m report.Circuit.Dcop.x "f")

let test_dcop_mosfet_inverter () =
  let nl = N.create () in
  N.vsource nl "vdd" "vdd" "0" (W.dc 3.0);
  N.vsource nl "vg" "g" "0" (W.dc 1.5);
  N.resistor nl "rl" "vdd" "d" 2e3;
  N.mosfet nl "m1" ~drain:"d" ~gate:"g" ~source:"0" Circuit.Mosfet.default_nmos;
  let m = Circuit.Mna.build nl in
  let x = Circuit.Dcop.solve_exn m in
  let vd = Circuit.Mna.voltage m x "d" in
  (* Verify against the model directly. *)
  let op = Circuit.Mosfet.evaluate Circuit.Mosfet.default_nmos ~vgs:1.5 ~vds:vd in
  let ir = (3.0 -. vd) /. 2e3 in
  Alcotest.(check bool) "KCL" true (Float.abs (ir -. op.Circuit.Mosfet.ids) < 1e-6)

(* ---------- Transient ---------- *)

let test_transient_rc_charging () =
  let nl = N.create () in
  N.vsource nl "v1" "in" "0" (W.dc 1.0);
  N.resistor nl "r1" "in" "out" 1e3;
  N.capacitor nl "c1" "out" "0" 1e-6;
  let m = Circuit.Mna.build nl in
  let x0 = Array.make (Circuit.Mna.size m) 0.0 in
  let r =
    Circuit.Transient.run ~method_:Numeric.Integrator.Trapezoidal ~x0 ~mna:m
      ~t_stop:5e-3 ~steps:500 ()
  in
  let v = Circuit.Transient.differential_waveform m r "out" "0" in
  let worst = ref 0.0 in
  Array.iteri
    (fun k t ->
      let expected = 1.0 -. exp (-.t /. 1e-3) in
      worst := Float.max !worst (Float.abs (v.(k) -. expected)))
    r.Circuit.Transient.trace.Numeric.Integrator.times;
  Alcotest.(check bool) "matches analytic" true (!worst < 1e-4)

let test_transient_lc_resonance () =
  (* Series RLC: underdamped ringing frequency ≈ 1/(2π√LC). *)
  let nl = N.create () in
  N.vsource nl "v1" "in" "0" (W.dc 1.0);
  N.resistor nl "r1" "in" "a" 10.0;
  N.inductor nl "l1" "a" "out" 1e-6;
  N.capacitor nl "c1" "out" "0" 1e-9;
  let m = Circuit.Mna.build nl in
  let x0 = Array.make (Circuit.Mna.size m) 0.0 in
  let f0 = 1.0 /. (2.0 *. pi *. sqrt (1e-6 *. 1e-9)) in
  let r =
    Circuit.Transient.run ~method_:Numeric.Integrator.Trapezoidal ~x0 ~mna:m
      ~t_stop:(4.0 /. f0) ~steps:2000 ()
  in
  let v = Circuit.Transient.differential_waveform m r "out" "0" in
  (* Find the first two maxima and compare their spacing to 1/f0. *)
  let peaks = ref [] in
  for k = 1 to Array.length v - 2 do
    if v.(k) > v.(k - 1) && v.(k) > v.(k + 1) && v.(k) > 1.0 then
      peaks := r.Circuit.Transient.trace.Numeric.Integrator.times.(k) :: !peaks
  done;
  match List.rev !peaks with
  | t1 :: t2 :: _ ->
      let measured_f = 1.0 /. (t2 -. t1) in
      Alcotest.(check bool) "ring frequency within 3%" true
        (Float.abs (measured_f -. f0) /. f0 < 0.03)
  | _ -> Alcotest.fail "expected at least two ringing peaks"

let test_transient_rectifier_charges_up () =
  let nl = N.create () in
  N.vsource nl "v1" "in" "0" (W.sine ~amplitude:5.0 ~freq:1e3 ());
  N.diode nl "d1" "in" "out" Circuit.Diode.default;
  N.resistor nl "rl" "out" "0" 100e3;
  N.capacitor nl "cl" "out" "0" 1e-6;
  let m = Circuit.Mna.build nl in
  let r = Circuit.Transient.run ~mna:m ~t_stop:10e-3 ~steps:2000 () in
  let v = Circuit.Transient.differential_waveform m r "out" "0" in
  let final = v.(Array.length v - 1) in
  Alcotest.(check bool) "peak detector" true (final > 3.5 && final < 5.0)

let test_transient_differential_waveform () =
  let m = divider () in
  let r = Circuit.Transient.run ~mna:m ~t_stop:1e-6 ~steps:10 () in
  let d = Circuit.Transient.differential_waveform m r "in" "mid" in
  Alcotest.(check (float 1e-5)) "diff" 5.0 d.(5)

(* ---------- properties ---------- *)

let prop_waveform_diag_consistency =
  (* eval_with over the trivial phase map equals plain eval. *)
  QCheck.Test.make ~count:100 ~name:"waveform: eval_with (f·t) = eval"
    QCheck.(make Gen.(pair (float_range 0.1 100.0) (float_range (-1.0) 1.0)))
    (fun (freq, t) ->
      let w = W.sum (W.sine ~amplitude:1.5 ~freq ()) (W.dc 0.3) in
      Float.abs (W.eval w t -. W.eval_with ~phase_of:(fun f -> f *. t) w) < 1e-12)

let prop_mosfet_current_continuity =
  (* No jumps at the triode/saturation boundary. *)
  QCheck.Test.make ~count:100 ~name:"mosfet: continuous at vds = vov"
    QCheck.(make Gen.(float_range 0.6 3.0))
    (fun vgs ->
      let p = Circuit.Mosfet.default_nmos in
      let vov = vgs -. p.Circuit.Mosfet.vt0 in
      let below = (Circuit.Mosfet.evaluate p ~vgs ~vds:(vov -. 1e-9)).Circuit.Mosfet.ids in
      let above = (Circuit.Mosfet.evaluate p ~vgs ~vds:(vov +. 1e-9)).Circuit.Mosfet.ids in
      Float.abs (below -. above) < 1e-8)

let prop_waveform_linearity =
  QCheck.Test.make ~count:100 ~name:"waveform: sum/scale are pointwise linear"
    QCheck.(
      make Gen.(triple (float_range (-5.0) 5.0) (float_range 0.1 50.0) (float_range (-1.0) 1.0)))
    (fun (k, freq, t) ->
      let a = W.sine ~amplitude:1.0 ~freq () in
      let b = W.cosine ~amplitude:0.5 ~freq:(2.0 *. freq) () in
      let lhs = W.eval (W.sum (W.scale k a) b) t in
      let rhs = (k *. W.eval a t) +. W.eval b t in
      Float.abs (lhs -. rhs) < 1e-9)

let prop_mosfet_monotone_in_vgs =
  QCheck.Test.make ~count:100 ~name:"mosfet: ids non-decreasing in vgs (vds > 0)"
    QCheck.(make Gen.(triple (float_range 0.0 3.0) (float_range 0.0 3.0) (float_range 0.01 2.0)))
    (fun (vgs_lo, dv, vds) ->
      let p = Circuit.Mosfet.default_nmos in
      let i1 = (Circuit.Mosfet.evaluate p ~vgs:vgs_lo ~vds).Circuit.Mosfet.ids in
      let i2 = (Circuit.Mosfet.evaluate p ~vgs:(vgs_lo +. dv) ~vds).Circuit.Mosfet.ids in
      i2 >= i1 -. 1e-15)

let prop_diode_monotone =
  QCheck.Test.make ~count:100 ~name:"diode: current strictly increasing"
    QCheck.(make Gen.(pair (float_range (-2.0) 3.0) (float_range 1e-3 1.0)))
    (fun (v, dv) ->
      let p = Circuit.Diode.default in
      Support.diode_current p (v +. dv) > Support.diode_current p v)

let prop_dcop_divider =
  QCheck.Test.make ~count:50 ~name:"dcop: resistive dividers"
    QCheck.(make Gen.(triple (float_range 0.1 10.0) (float_range 100.0 1e5) (float_range 100.0 1e5)))
    (fun (v, r1, r2) ->
      let nl = N.create () in
      N.vsource nl "v1" "in" "0" (W.dc v);
      N.resistor nl "r1" "in" "mid" r1;
      N.resistor nl "r2" "mid" "0" r2;
      let m = Circuit.Mna.build nl in
      let x = Circuit.Dcop.solve_exn m in
      let expected = v *. r2 /. (r1 +. r2) in
      Float.abs (Circuit.Mna.voltage m x "mid" -. expected) < 1e-6 *. Float.max 1.0 v)

let () =
  Alcotest.run "circuit"
    [
      ( "waveform",
        [
          Alcotest.test_case "dc" `Quick test_waveform_dc;
          Alcotest.test_case "sine" `Quick test_waveform_sine;
          Alcotest.test_case "cosine phase" `Quick test_waveform_cosine_phase;
          Alcotest.test_case "pulse levels" `Quick test_waveform_pulse_levels;
          Alcotest.test_case "pulse ramps" `Quick test_waveform_pulse_ramps;
          Alcotest.test_case "bit stream" `Quick test_waveform_bits;
          Alcotest.test_case "bit smoothing" `Quick test_waveform_bits_smoothing;
          Alcotest.test_case "modulated carrier" `Quick test_waveform_modulated_carrier_diag;
          Alcotest.test_case "sum/scale" `Quick test_waveform_sum_scale;
          Alcotest.test_case "frequencies" `Quick test_waveform_frequencies;
          Alcotest.test_case "custom phase" `Quick test_waveform_eval_with_custom_phase;
          Alcotest.test_case "sampled shape" `Quick test_waveform_sampled;
        ] );
      ( "diode",
        [
          Alcotest.test_case "reverse" `Quick test_diode_reverse;
          Alcotest.test_case "forward monotone" `Quick test_diode_forward_monotone;
          Alcotest.test_case "no overflow" `Quick test_diode_no_overflow;
          Alcotest.test_case "conductance consistent" `Quick test_diode_conductance_consistent;
          Alcotest.test_case "charge" `Quick test_diode_charge;
        ] );
      ( "mosfet",
        [
          Alcotest.test_case "cutoff" `Quick test_mosfet_cutoff;
          Alcotest.test_case "saturation" `Quick test_mosfet_saturation_current;
          Alcotest.test_case "triode" `Quick test_mosfet_triode;
          Alcotest.test_case "drain/source symmetry" `Quick test_mosfet_symmetry;
          Alcotest.test_case "derivatives" `Quick test_mosfet_derivative_consistency;
          Alcotest.test_case "pmos mirror" `Quick test_pmos_mirror;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "ground aliases" `Quick test_netlist_ground_aliases;
          Alcotest.test_case "interning" `Quick test_netlist_interning;
          Alcotest.test_case "duplicate device" `Quick test_netlist_duplicate_device;
          Alcotest.test_case "find_node" `Quick test_netlist_find;
        ] );
      ( "mna",
        [
          Alcotest.test_case "size" `Quick test_mna_size;
          Alcotest.test_case "unknown names" `Quick test_mna_unknown_names;
          Alcotest.test_case "divider dc" `Quick test_mna_divider_dc;
          Alcotest.test_case "current source" `Quick test_mna_current_source;
          Alcotest.test_case "vccs" `Quick test_mna_vccs;
          Alcotest.test_case "multiplier dc" `Quick test_mna_multiplier_dc;
          Alcotest.test_case "differential voltage" `Quick test_mna_differential_voltage;
          Alcotest.test_case "warped source" `Quick test_mna_source_with_phase;
          Alcotest.test_case "source frequencies" `Quick test_mna_source_frequencies;
          Alcotest.test_case "G matches finite differences" `Quick test_mna_jacobian_matches_fd;
          Alcotest.test_case "C matches finite differences" `Quick test_mna_charge_jacobian_matches_fd;
        ] );
      ( "dcop",
        [
          Alcotest.test_case "diode drop" `Quick test_dcop_diode_drop;
          Alcotest.test_case "inductor short" `Quick test_dcop_inductor_short;
          Alcotest.test_case "floating node gmin" `Quick test_dcop_floating_gate_gmin;
          Alcotest.test_case "mosfet inverter" `Quick test_dcop_mosfet_inverter;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc charging" `Quick test_transient_rc_charging;
          Alcotest.test_case "lc resonance" `Quick test_transient_lc_resonance;
          Alcotest.test_case "rectifier" `Quick test_transient_rectifier_charges_up;
          Alcotest.test_case "differential waveform" `Quick test_transient_differential_waveform;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_waveform_diag_consistency;
            prop_waveform_linearity;
            prop_mosfet_current_continuity;
            prop_mosfet_monotone_in_vgs;
            prop_diode_monotone;
            prop_dcop_divider;
          ] );
    ]
