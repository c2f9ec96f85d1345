(* Quickstart: the paper's ideal mixing example (§2, eqs. (5)-(11)).

   Two closely spaced tones f1 = 1 GHz and f2 = f1 - 10 kHz are
   multiplied. We build the unsheared multi-time surface ẑ1 (Fig. 1),
   the sheared difference-frequency surface ẑ2 (Fig. 2), and then solve
   an actual multiplying-mixer circuit with the MPDE to read off the
   10 kHz difference tone directly. Run with:

     dune exec examples/quickstart.exe *)

let () =
  let f1 = 1e9 in
  let fd = 10e3 in
  let f2 = f1 -. fd in
  let shear = Mpde.Shear.make ~fast_freq:f1 ~slow_freq:fd in

  (* The product waveform z(t) = cos(2π f1 t) · cos(2π f2 t) as a
     single two-factor term, so its multi-time surfaces come straight
     from Waveform.eval_with. *)
  let z =
    {
      Circuit.Waveform.dc = 0.0;
      terms =
        [
          {
            Circuit.Waveform.gain = 1.0;
            factors =
              [
                { Circuit.Waveform.shape = Cos { phase = 0.0 }; freq = f1 };
                { Circuit.Waveform.shape = Cos { phase = 0.0 }; freq = f2 };
              ];
          };
        ];
    }
  in
  let n1 = 24 and n2 = 24 in
  let t1p = Mpde.Shear.t1_period shear and t2p = Mpde.Shear.t2_period shear in
  Printf.printf "# Fig.1-style unsheared surface z1(t1,t2): t1, t2 in ns (both fast)\n";
  for i = 0 to 4 do
    for j = 0 to 4 do
      let t1 = float_of_int i *. t1p /. float_of_int n1 in
      let t2 = float_of_int j *. t1p /. float_of_int n2 in
      let v =
        Circuit.Waveform.eval_with
          ~phase_of:(Mpde.Shear.phase_unsheared shear ~t1 ~t2)
          z
      in
      Printf.printf "z1(%.3fns, %.3fns) = %+.3f  " (1e9 *. t1) (1e9 *. t2) v
    done;
    print_newline ()
  done;
  Printf.printf "\n# Fig.2-style sheared surface z2(t1,t2): t2 now spans 0.1 ms\n";
  for j = 0 to 4 do
    let t2 = float_of_int j *. t2p /. 4.0 in
    let v = Circuit.Waveform.eval_with ~phase_of:(Mpde.Shear.phase shear ~t1:0.0 ~t2) z in
    Printf.printf "z2(0, %.3fms) = %+.3f\n" (1e3 *. t2) v
  done;

  (* Now an actual circuit: behavioral multiplier into an RC IF load,
     solved through the unified engine API. *)
  let lo = Circuit.Waveform.cosine ~amplitude:1.0 ~freq:f1 () in
  let rf = Circuit.Waveform.cosine ~amplitude:1.0 ~freq:f2 () in
  let problem =
    Engine.Problem.make ~label:"quickstart" ~output:"out" ~f_fast:f1 ~fd
      (fun () -> Circuits.ideal_mixer ~lo ~rf ())
  in
  let options = { Engine.Options.default with n1 = 32; n2 = 24 } in
  let r = Engine.run problem (Engine.make ~options Engine.Mpde) in
  Printf.printf "\nMPDE solve: converged=%b, %d Newton iterations, %.3fs\n"
    r.Engine.Result.converged r.Engine.Result.newton_iterations
    r.Engine.Result.wall_seconds;
  let sol = Option.get r.Engine.Result.mpde_solution in
  (* Identically-built MNA for node-index lookups in the extractors. *)
  let { Circuits.mna; _ } = Circuits.ideal_mixer ~lo ~rf () in
  (* The engine's health skips the Jacobian condition estimate and the
     diagonal check; probing the solution adds both. *)
  Printf.printf "%s\n"
    (Diagnostics.Health.summary_line
       (Diagnostics.Health.probe sol
          ~unknown:(Circuit.Mna.node_index mna "out")
          r.Engine.Result.health));
  let out = Mpde.Extract.surface_of_node sol mna "out" in
  let amp = Mpde.Extract.t2_harmonic_amplitude ~values:out ~harmonic:1 in
  Printf.printf "difference-tone (10 kHz) amplitude at the IF output: %.4f V\n" amp;
  Printf.printf "conversion gain: %.2f dB (ideal multiplier: -6.02 dB)\n"
    (Mpde.Extract.conversion_gain_db ~values:out ~rf_amplitude:1.0 ~harmonic:1);
  Printf.printf "\nbaseband waveform along the difference time scale:\n";
  let env = Mpde.Extract.envelope sol ~values:out in
  let times = Mpde.Extract.envelope_times sol in
  Array.iteri
    (fun j v -> if j mod 4 = 0 then Printf.printf "  t2 = %6.2f us   v = %+.4f V\n" (1e6 *. times.(j)) v)
    env
