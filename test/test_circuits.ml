(* Sanity tests for the shared example circuits: structure, DC
   operating points, and basic physical behaviour. *)

module W = Circuit.Waveform
module N = Circuit.Netlist

let drive_1k = W.sine ~amplitude:1.0 ~freq:1e3 ()

let test_rc_lowpass_structure () =
  let { Circuits.mna; netlist } = Circuits.rc_lowpass ~drive:drive_1k () in
  Alcotest.(check int) "devices" 3 (List.length (Circuit.Netlist.devices netlist));
  Alcotest.(check int) "unknowns" 3 (Circuit.Mna.size mna)

let test_rlc_dc_short () =
  let { Circuits.mna; _ } = Circuits.rlc_series ~drive:(W.dc 2.0) () in
  let x = Circuit.Dcop.solve_exn mna in
  (* At DC, L shorts and C blocks: no current, vout = 2 V through R+L. *)
  Alcotest.(check (float 1e-4)) "vout" 2.0 (Circuit.Mna.voltage mna x "out")

let test_diode_rectifier_dc () =
  let { Circuits.mna; _ } = Circuits.diode_rectifier ~drive:(W.dc 2.0) () in
  let x = Circuit.Dcop.solve_exn mna in
  let vout = Circuit.Mna.voltage mna x "out" in
  Alcotest.(check bool) "one diode drop" true (vout > 1.2 && vout < 1.7)

let test_envelope_detector_pole_placement () =
  let f1 = 1e6 and f2 = 1.02e6 in
  let { Circuits.netlist; _ } = Circuits.envelope_detector ~f1 ~f2 ~amplitude:1.0 () in
  (* The auto-sized load capacitor must put the RC pole between fd and f1. *)
  let cap =
    List.find_map
      (fun d ->
        match d with
        | Circuit.Device.Capacitor { capacitance; _ } -> Some capacitance
        | _ -> None)
      (Circuit.Netlist.devices netlist)
  in
  match cap with
  | None -> Alcotest.fail "no load capacitor"
  | Some c ->
      let pole = 1.0 /. (2.0 *. Float.pi *. 10e3 *. c) in
      Alcotest.(check bool) "pole between fd and carrier" true
        (pole > (f2 -. f1) && pole < f1)

let test_ideal_mixer_nodes () =
  let lo = W.cosine ~amplitude:1.0 ~freq:1e6 () in
  let rf = W.cosine ~amplitude:1.0 ~freq:1.001e6 () in
  let { Circuits.mna; _ } = Circuits.ideal_mixer ~lo ~rf () in
  (* nodes lo, rf, out + two branch currents *)
  Alcotest.(check int) "unknowns" 5 (Circuit.Mna.size mna);
  ignore (Circuit.Mna.node_index mna "out")

let test_balanced_mixer_dc_op () =
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:900.015e6 () in
  (* rf_amplitude 0 keeps the t = 0 source snapshot symmetric (the RF
     cosine is 1 at t = 0, which would legitimately unbalance the DC
     operating point). *)
  let { Circuits.mna; _ } =
    Circuits.balanced_mixer ~f_lo:450e6 ~rf_amplitude:0.0 ~rf_signal ()
  in
  let report = Circuit.Dcop.solve mna in
  Alcotest.(check bool) "dc converges" true report.Circuit.Dcop.converged;
  let x = report.Circuit.Dcop.x in
  let nodes = Circuits.balanced_mixer_nodes in
  let vdp = Circuit.Mna.voltage mna x nodes.Circuits.out_plus in
  let vdm = Circuit.Mna.voltage mna x nodes.Circuits.out_minus in
  let vs = Circuit.Mna.voltage mna x nodes.Circuits.source_node in
  (* Symmetric topology → symmetric DC outputs; source node sits between
     ground and the gate bias. *)
  Alcotest.(check (float 1e-6)) "balanced outputs" vdp vdm;
  Alcotest.(check bool) "outputs below vdd" true (vdp > 0.0 && vdp < 3.0);
  Alcotest.(check bool) "tail node plausible" true (vs > 0.0 && vs < 1.8)

let test_balanced_mixer_doubler_symmetry () =
  (* The tail current seen at node s must repeat twice per LO period:
     compare the first and second half of the fast-scale column of an
     MPDE solve with a pure-tone RF. *)
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:((2.0 *. 450e6) +. fd) () in
  let { Circuits.mna; _ } = Circuits.balanced_mixer ~f_lo ~rf_signal ~rf_amplitude:0.0 () in
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  let sol = Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:4 mna in
  Alcotest.(check bool) "converged" true sol.Mpde.Solver.stats.converged;
  let vs =
    Mpde.Extract.surface_of_node sol mna Circuits.balanced_mixer_nodes.Circuits.source_node
  in
  let worst = ref 0.0 in
  for i = 0 to 15 do
    worst := Float.max !worst (Float.abs (vs.(i).(0) -. vs.(i + 16).(0)))
  done;
  Alcotest.(check bool) "2·LO periodicity at the tail" true (!worst < 1e-3)

let test_unbalanced_mixer_dc () =
  let rf_signal = W.cosine ~amplitude:1.0 ~freq:1.001e6 () in
  let { Circuits.mna; _ } = Circuits.unbalanced_mixer ~f_lo:1e6 ~rf_signal ~rf_amplitude:0.05 () in
  let x = Circuit.Dcop.solve_exn mna in
  let vout = Circuit.Mna.voltage mna x "out" in
  Alcotest.(check bool) "biased in range" true (vout > 0.2 && vout < 3.0)

let test_paper_rf_bitstream_lattice () =
  let f_lo = 450e6 and fd = 15e3 in
  let w, bits = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  Alcotest.(check int) "default pattern" 6 (Array.length bits);
  let shear = Mpde.Shear.make ~fast_freq:f_lo ~slow_freq:fd in
  (* Every frequency in the bitstream drive must be on the shear lattice. *)
  List.iter
    (fun f -> ignore (Support.shear_lattice shear f))
    (W.frequencies w);
  (* The carrier must be at 2·f_lo + fd. *)
  Alcotest.(check bool) "carrier on lattice as (2,1)" true
    (List.exists
       (fun f -> Support.shear_lattice shear f = (2, 1))
       (W.frequencies w))

let test_paper_rf_bitstream_custom_bits () =
  let bits = [| true; false; true |] in
  let w, bits' = Circuits.paper_rf_bitstream ~bits ~f_lo:450e6 ~fd:15e3 () in
  Alcotest.(check bool) "bits preserved" true (bits = bits');
  (* Pattern frequency = symbol_freq / nbits = fd. *)
  Alcotest.(check bool) "pattern at fd" true (List.mem 15e3 (W.frequencies w))

(* ---------- Compiled Jacobian stamps ---------- *)

let stamp_circuits () =
  List.map
    (fun (f : Serve.Catalog.t) ->
      (f.Serve.Catalog.name, (f.Serve.Catalog.build ~f_fast:f.default_fast ~fd:f.default_fd).Circuits.mna))
    Serve.Catalog.all
  @ [
      ("bridge", (Circuits.bridge_rectifier ~drive:(W.sine ~amplitude:5.0 ~freq:1e3 ()) ()).Circuits.mna);
      ( "gilbert",
        (Circuits.gilbert_mixer ~f_lo:1e6
           ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:1.01e6 ())
           ~rf_amplitude:0.02 ())
          .Circuits.mna );
    ]

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every entry of [fresh] has a slot in [frozen]. *)
let covered ~(frozen : Sparse.Csr.t) (fresh : Sparse.Csr.t) =
  let ok = ref true in
  for i = 0 to fresh.Sparse.Csr.rows - 1 do
    Sparse.Csr.iter_row fresh i (fun j _ ->
        let present = ref false in
        Sparse.Csr.iter_row frozen i (fun j' _ -> if j' = j then present := true);
        if not !present then ok := false)
  done;
  !ok

(* Every slot of the refreshed [frozen] holds, bit for bit, the value a
   rebuild has there (an absent rebuild entry reads +0). *)
let same_values what ~(frozen : Sparse.Csr.t) (fresh : Sparse.Csr.t) =
  for i = 0 to frozen.Sparse.Csr.rows - 1 do
    Sparse.Csr.iter_row frozen i (fun j v ->
        if not (bits_equal v (Sparse.Csr.get fresh i j)) then
          Alcotest.failf "%s: entry (%d,%d) refreshed %h, rebuilt %h" what i j v
            (Sparse.Csr.get fresh i j))
  done

(* A load closure of [mna]'s DAE, with q and f into scratch. *)
let loader_of mna =
  let dae = Circuit.Mna.dae mna in
  let load = dae.Numeric.Dae.load () in
  let q = Array.make dae.Numeric.Dae.size 0.0 and f = Array.make dae.Numeric.Dae.size 0.0 in
  fun x ~g ~c -> load x ~q ~f ~g ~c

(* At the DC point and at seeded iterates around it, the load either
   fits (and then writes a rebuild's values bit for bit) or reports
   drift exactly when a rebuild has an entry outside the frozen
   pattern; after drift the caller's rebuild becomes the new pattern,
   with a program of its own. *)
let test_refresher_matches_rebuild () =
  List.iter
    (fun (name, mna) ->
      let dae = Circuit.Mna.dae mna in
      let refresh = loader_of mna in
      let dc = (Circuit.Dcop.solve mna).Circuit.Dcop.x in
      let st = Random.State.make [| 17 |] in
      let iterates =
        dc :: List.init 6 (fun _ -> Array.map (fun v -> v +. Random.State.float st 0.6 -. 0.3) dc)
      in
      let frozen = ref (dae.Numeric.Dae.jacobians dc) in
      List.iteri
        (fun k x ->
          let what = Printf.sprintf "%s iterate %d" name k in
          let g, c = dae.Numeric.Dae.jacobians x in
          let g0, c0 = !frozen in
          let fits = refresh x ~g:g0 ~c:c0 in
          Alcotest.(check bool)
            (what ^ ": drift reported exactly when the rebuild leaves the pattern")
            (covered ~frozen:g0 g && covered ~frozen:c0 c)
            fits;
          if k = 0 then Alcotest.(check bool) (what ^ ": fits its own pattern") true fits;
          if fits then begin
            same_values (what ^ " G") ~frozen:g0 g;
            same_values (what ^ " C") ~frozen:c0 c
          end
          else begin
            frozen := (g, c);
            Alcotest.(check bool) (what ^ ": fits the rebuilt pattern") true (refresh x ~g ~c);
            let g', c' = dae.Numeric.Dae.jacobians x in
            same_values (what ^ " rebuilt G") ~frozen:g g';
            same_values (what ^ " rebuilt C") ~frozen:c c'
          end)
        iterates)
    (stamp_circuits ())

(* The ideal mixer's multiplier stamps gain·v_rf and gain·v_lo: exactly
   0.0 at the zero state, so a pattern built there has no slots for
   them. A load there reports drift and still writes q and f; the
   caller's rebuild then fits. *)
let test_refresher_zero_crossing () =
  let { Circuits.mna; _ } =
    Circuits.ideal_mixer ~lo:(W.sine ~amplitude:1.0 ~freq:1e6 ())
      ~rf:(W.sine ~amplitude:1.0 ~freq:1.01e6 ()) ()
  in
  let dae = Circuit.Mna.dae mna in
  let n = dae.Numeric.Dae.size in
  let zero = Array.make n 0.0 and x = Array.init n (fun i -> 0.1 *. float_of_int (i + 1)) in
  let load = dae.Numeric.Dae.load () in
  let q = Array.make n nan and f = Array.make n nan in
  let refresh x ~g ~c = load x ~q ~f ~g ~c in
  let g0, c0 = dae.Numeric.Dae.jacobians zero in
  Alcotest.(check bool) "a stamp leaving 0.0 is drift" false (refresh x ~g:g0 ~c:c0);
  let q', f' = (Array.make n nan, Array.make n nan) in
  Support.eval_qf dae x ~q:q' ~f:f';
  Alcotest.(check bool) "q and f hold on drift" true
    (Array.for_all2 bits_equal q q' && Array.for_all2 bits_equal f f');
  let g, c = dae.Numeric.Dae.jacobians x in
  Alcotest.(check bool) "the caller's rebuild has the missing entries" true
    (Sparse.Csr.nnz g > Sparse.Csr.nnz g0);
  Alcotest.(check bool) "the rebuild fits" true (refresh x ~g ~c);
  let g', c' = dae.Numeric.Dae.jacobians x in
  same_values "rebuilt G" ~frozen:g g';
  same_values "rebuilt C" ~frozen:c c';
  (* Back at the zero state the full pattern still fits: its extra
     slots hold +0, as the smaller rebuild reads there. *)
  Alcotest.(check bool) "a stamp reaching 0.0 fits" true (refresh zero ~g ~c);
  same_values "G at zero" ~frozen:g g0;
  same_values "C at zero" ~frozen:c c0

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A load after the first (which records the stamp stream) allocates
   nothing at all — no triplet list, no slot search, no boxed value of
   q or f: the diode, MOSFET and BJT models write into the per-domain
   buffer of {!Circuit.Mna}, so no operating-point record and no boxed
   voltage is left on the heap. *)
let test_refresher_allocates_nothing () =
  List.iter
    (fun (name, { Circuits.mna; _ }) ->
      let dae = Circuit.Mna.dae mna in
      let n = dae.Numeric.Dae.size in
      let x = Array.init n (fun i -> 0.3 +. (0.05 *. float_of_int i)) in
      let g, c = dae.Numeric.Dae.jacobians x in
      let load = dae.Numeric.Dae.load () in
      let q = Array.make n 0.0 and f = Array.make n 0.0 in
      ignore (load x ~q ~f ~g ~c);
      Alcotest.(check (float 0.0)) (name ^ ": words per load") 0.0
        (minor_words (fun () -> ignore (load x ~q ~f ~g ~c))))
    [
      ("rc", Circuits.rc_lowpass ~drive:drive_1k ());
      ("rlc", Circuits.rlc_series ~drive:drive_1k ());
      ( "unbalanced mixer (MOSFET)",
        Circuits.unbalanced_mixer ~f_lo:1e6
          ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:1.01e6 ())
          ~rf_amplitude:0.05 () );
      ( "gilbert cell (BJT)",
        Circuits.gilbert_mixer ~f_lo:1e6
          ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:1.01e6 ())
          ~rf_amplitude:0.02 () );
      ("bridge (diodes)", Circuits.bridge_rectifier ~drive:drive_1k ());
    ]

(* A slot whose stamps run constant, variable, constant keeps that
   order: the load folds only the constants ahead of the slot's first
   variable stamp into its base (as the balanced mixer's dp node takes
   a MOSFET's stamps and then a resistor's). Here node a's diagonal
   takes gmin, 1/R1, the diode's conductance and 1/R2, in that order;
   at some of the iterates, adding 1/R2 ahead of the conductance gives
   other floats, so a load that folded it into the base would show. *)
let test_stamp_order_kept () =
  let nl = N.create () in
  N.resistor nl "r1" "a" "0" 1.0;
  N.diode nl "d1" "a" "0" Circuit.Diode.default;
  N.resistor nl "r2" "a" "0" 3.0;
  let mna = Circuit.Mna.build nl in
  let dae = Circuit.Mna.dae mna in
  let load = loader_of mna in
  let gmin = 1e-12 in
  let reordered = ref 0 in
  for k = 0 to 199 do
    let x = [| 0.5 +. (0.002 *. float_of_int k) |] in
    let g, c = dae.Numeric.Dae.jacobians x in
    let g' = { g with Sparse.Csr.values = Array.make 1 nan } in
    Alcotest.(check bool) "fits" true (load x ~g:g' ~c);
    let v = g'.Sparse.Csr.values.(0) in
    if not (bits_equal v g.Sparse.Csr.values.(0)) then
      Alcotest.failf "x = %h: load %h, rebuild %h" x.(0) v g.Sparse.Csr.values.(0);
    let gd = Support.diode_conductance Circuit.Diode.default x.(0) in
    let in_order = 0.0 +. gmin +. 1.0 +. gd +. (1.0 /. 3.0) in
    let folded = 0.0 +. gmin +. 1.0 +. (1.0 /. 3.0) +. gd in
    Alcotest.(check bool) "the stream order" true (bits_equal in_order v);
    if not (bits_equal in_order folded) then incr reordered
  done;
  Alcotest.(check bool) "some iterates tell the orders apart" true (!reordered > 0)

(* [source_into] at each of [times], already boxed, so that the loop
   itself allocates nothing. *)
let rec feed source b = function
  | [] -> ()
  | t :: rest ->
      source t b;
      feed source b rest

(* The one-time source evaluation an integrator runs at every step
   allocates nothing (no closure over the time, no boxed phase or
   value) and gives the floats of the multi-time hook at the phases
   [freq *. t], bit for bit: sines, cosines, a trapezoid pulse and the
   paper's bit-stream-modulated carrier, through voltage and current
   sources. *)
let test_source_into_allocates_nothing () =
  let f_lo = 450e6 and fd = 15e3 in
  let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
  let times = List.init 200 (fun k -> float_of_int k *. 3.7e-10) in
  List.iter
    (fun (name, { Circuits.mna; _ }) ->
      let dae = Circuit.Mna.dae mna in
      let source_into = dae.Numeric.Dae.source_into in
      let b = Array.make dae.Numeric.Dae.size 0.0 in
      feed source_into b times;
      Alcotest.(check (float 0.0)) (name ^ ": words per source_into") 0.0
        (minor_words (fun () -> feed source_into b times));
      let freqs = Array.of_list (Circuit.Mna.source_frequencies mna) in
      let phases = Array.make (Array.length freqs) 0.0 in
      let reference = Array.make dae.Numeric.Dae.size 0.0 in
      let multi_time t =
        Array.iteri (fun i f -> phases.(i) <- f *. t) freqs;
        Circuit.Mna.sources_into mna ~freqs ~phases reference 0
      in
      multi_time 1e-9;
      Alcotest.(check (float 0.0)) (name ^ ": words per sources_into") 0.0
        (minor_words (fun () -> Circuit.Mna.sources_into mna ~freqs ~phases reference 0));
      List.iter
        (fun t ->
          source_into t b;
          multi_time t;
          Array.iteri
            (fun i v ->
              if Int64.bits_of_float v <> Int64.bits_of_float b.(i) then
                Alcotest.failf "%s: b(%g).(%d) = %h, the multi-time hook gives %h" name t i b.(i) v)
            reference)
        times)
    [
      ("rc", Circuits.rc_lowpass ~drive:drive_1k ());
      ( "unbalanced mixer",
        Circuits.unbalanced_mixer ~f_lo:1e6
          ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:1.01e6 ())
          ~rf_amplitude:0.05 () );
      ( "pulse-driven rectifier",
        Circuits.diode_rectifier ~drive:(W.pulse ~low:0.0 ~high:2.0 ~duty:0.5 ~freq:1e6 ()) () );
      ("balanced mixer (bit stream)", Circuits.balanced_mixer ~f_lo ~rf_signal ());
      ( "current-driven rc",
        let nl = N.create () in
        N.isource nl "i1" "0" "out"
          (W.sum (W.sine ~amplitude:1e-3 ~freq:1e6 ()) (W.dc (-2e-4)));
        N.resistor nl "r1" "out" "0" 1e3;
        N.capacitor nl "c1" "out" "0" 1e-9;
        { Circuits.netlist = nl; mna = Circuit.Mna.build nl } );
    ]

(* A backward-Euler step of the unbalanced mixer (5 unknowns, about 1.8
   Newton iterations per step) allocates its result record, its copy of
   the state and floats boxed for the telemetry and axpy calls: about 28
   words. While the sources' waveform evaluation built a closure over
   the time and boxed its phases it was about 44, while Newton built its
   buffers, residual-history ring and iteration closure per step it was
   about 240, while the MOSFET model returned records about 340, and
   before stamps were replayed into frozen slots and Newton worked in
   place about 970. *)
let implicit_step_word_budget = 100.0

let test_implicit_step_allocation () =
  let f_lo = 1e6 and fd = 1e6 /. 756.5 in
  let { Circuits.mna; _ } =
    Circuits.unbalanced_mixer ~f_lo
      ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
      ~rf_amplitude:0.05 ()
  in
  let dae = Circuit.Mna.dae mna in
  let ws = Numeric.Integrator.workspace dae in
  let h = 1.0 /. (10.0 *. f_lo) in
  let x = ref (Circuit.Dcop.solve_exn mna) and t = ref 0.0 in
  let step () =
    t := !t +. h;
    let r =
      Numeric.Integrator.implicit_step ~method_:Numeric.Integrator.Backward_euler ~workspace:ws
        ~t_next:!t ~h ~x_prev:!x ()
    in
    if not r.Numeric.Integrator.converged then Alcotest.fail "step did not converge";
    x := r.Numeric.Integrator.x
  in
  for _ = 1 to 10 do
    step ()
  done;
  let steps = 200 in
  let words =
    minor_words (fun () ->
        for _ = 1 to steps do
          step ()
        done)
  in
  let per_step = words /. float_of_int steps in
  if per_step > implicit_step_word_budget then
    Alcotest.failf "%.0f words per step, budget %.0f" per_step implicit_step_word_budget

(* q, f, G and C of every stamped circuit at fixed iterates, hashed bit
   for bit: the six catalog circuits (the ideal mixer's multiplier
   among them), the bridge and the Gilbert cell (BJT), at the zero
   state, a ramp and two scrambled states. The iterates avoid libm so that they are the same
   floats everywhere. The pins were captured from the separate
   q, f and Jacobian walks that preceded the one-pass load. *)
let pin_iterates n =
  [
    Array.make n 0.0;
    Array.init n (fun i -> 0.3 +. (0.05 *. float_of_int i));
    Array.init n (fun i -> (float_of_int ((i * 37) mod 23) /. 11.0) -. 1.0);
    Array.init n (fun i -> (float_of_int (((i * 53) + 7) mod 31) /. 6.0) -. 2.5);
  ]

let hash_vec h v = Array.fold_left Telemetry.Fnv.mix_float h v

let hash_csr h (m : Sparse.Csr.t) =
  let h = Array.fold_left Telemetry.Fnv.mix_int h m.Sparse.Csr.row_ptr in
  let h = Array.fold_left Telemetry.Fnv.mix_int h m.Sparse.Csr.col_idx in
  hash_vec h m.Sparse.Csr.values

(* q, f, G and C at [x] from one load: G and C on the pattern a fresh
   build has at [x], their values the load's. *)
let evaluate_all dae x =
  let n = dae.Numeric.Dae.size in
  let q = Array.make n nan and f = Array.make n nan in
  let g, c = dae.Numeric.Dae.jacobians x in
  let fill (m : Sparse.Csr.t) = Array.fill m.Sparse.Csr.values 0 (Sparse.Csr.nnz m) nan in
  fill g;
  fill c;
  if not (dae.Numeric.Dae.load () x ~q ~f ~g ~c) then Alcotest.fail "a load missed its own pattern";
  (q, f, g, c)

let device_pins =
  [
    ("rc", "a3669734646e7f47");
    ("rectifier", "0f645c653f83ff55");
    ("detector", "911d182c35b6b46c");
    ("ideal-mixer", "bded0ba06e279199");
    ("unbalanced-mixer", "599e47247e2dcdab");
    ("balanced-mixer", "ccd294cf5debd112");
    ("bridge", "676558cc14e94f75");
    ("gilbert", "f405cf71f49b1c70");
  ]

let test_device_pins () =
  let got =
    List.map
      (fun (name, mna) ->
        let dae = Circuit.Mna.dae mna in
        let h =
          List.fold_left
            (fun h x ->
              let q, f, g, c = evaluate_all dae x in
              hash_csr (hash_csr (hash_vec (hash_vec h q) f) g) c)
            Telemetry.Fnv.basis
            (pin_iterates dae.Numeric.Dae.size)
        in
        (name, Telemetry.Fnv.hex h))
      (stamp_circuits ())
  in
  Alcotest.(check (list (pair string string))) "q, f, G, C pins" device_pins got

let () =
  Alcotest.run "circuits"
    [
      ( "builders",
        [
          Alcotest.test_case "rc lowpass" `Quick test_rc_lowpass_structure;
          Alcotest.test_case "rlc dc" `Quick test_rlc_dc_short;
          Alcotest.test_case "rectifier dc" `Quick test_diode_rectifier_dc;
          Alcotest.test_case "detector pole" `Quick test_envelope_detector_pole_placement;
          Alcotest.test_case "ideal mixer" `Quick test_ideal_mixer_nodes;
          Alcotest.test_case "unbalanced mixer dc" `Quick test_unbalanced_mixer_dc;
        ] );
      ( "balanced mixer",
        [
          Alcotest.test_case "dc operating point" `Quick test_balanced_mixer_dc_op;
          Alcotest.test_case "LO doubling" `Slow test_balanced_mixer_doubler_symmetry;
        ] );
      ( "paper bitstream",
        [
          Alcotest.test_case "lattice consistency" `Quick test_paper_rf_bitstream_lattice;
          Alcotest.test_case "custom bits" `Quick test_paper_rf_bitstream_custom_bits;
        ] );
      ( "compiled stamps",
        [
          Alcotest.test_case "refresher = rebuild bitwise" `Quick test_refresher_matches_rebuild;
          Alcotest.test_case "stamp crossing zero" `Quick test_refresher_zero_crossing;
          Alcotest.test_case "refresh allocates nothing" `Quick test_refresher_allocates_nothing;
          Alcotest.test_case "source_into allocates nothing" `Quick
            test_source_into_allocates_nothing;
          Alcotest.test_case "implicit step word budget" `Quick test_implicit_step_allocation;
          Alcotest.test_case "device pins" `Quick test_device_pins;
          Alcotest.test_case "stamp order kept" `Quick test_stamp_order_kept;
        ] );
    ]
