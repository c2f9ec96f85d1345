(* bridge-rectifier: hard switching. The full-wave bridge of
   examples/power_converter.ml — 10 V at 50 kHz plus a second generator
   at 50.5 kHz, 1 kΩ ∥ 200 nF load — solved serially through
   Engine.run on a 24x12 grid, for a panel of second-generator
   amplitudes. The grid is smaller than the example's 48x24 so a run
   holds about 25 solves; it keeps the example's pathology (more
   dense factors than grid points, ~1-column panels, GMRES stalls and
   lag rebuilds).

   The panel is fixed and the seed only orders it. This circuit's solve
   cost is chaotic in its inputs: on a 32x16 grid, moving the amplitude
   by 0.05 % moved the Newton count between 33 and 42 and the wall time
   by a third, so seeded amplitudes would measure the draw instead of
   the program. Every run solves the whole panel, in whole cycles. *)

module W = Circuit.Waveform

let name = "bridge-rectifier"

let f1 = 50e3

let fd = 500.0

let amplitudes = [| 1.5; 2.0; 2.5 |]

let setup_amplitude = 2.0

let build ~a2 () =
  let drive =
    W.sum (W.sine ~amplitude:10.0 ~freq:f1 ()) (W.sine ~amplitude:a2 ~freq:(f1 +. fd) ())
  in
  Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive ()

let problem ~a2 =
  Engine.Problem.make ~label:name ~output:"p" ~output_b:"n" ~f_fast:f1 ~fd (build ~a2)

(* Brute-force reference: the DC-link mean over the second of two beat
   periods of a fixed-step transient. *)
let transient_mean ~a2 =
  let { Circuits.mna; _ } = build ~a2 () in
  let steps = int_of_float (2.0 /. fd *. f1 *. 40.0) in
  let tr = Circuit.Transient.run ~mna ~t_stop:(2.0 /. fd) ~steps () in
  let w = Circuit.Transient.differential_waveform mna tr "p" "n" in
  Linalg.Vec.mean (Array.sub w (steps / 2) (steps / 2))

let solve_errors (r : Engine.Result.t) ~reference =
  let mean = Linalg.Vec.mean r.Engine.Result.waveform.Engine.Result.values in
  Harness.expect r.Engine.Result.converged "solve did not converge"
  @ Harness.expect
      (Float.abs (mean -. reference) <= 0.01 *. Float.abs reference)
      (Printf.sprintf "DC-link mean %.4f V is not within 1%% of the transient's %.4f V" mean
         reference)

let spec (cfg : Harness.config) =
  let panel =
    if cfg.Harness.toy then [| setup_amplitude |]
    else Gen.shuffle (Gen.rng ~seed:cfg.Harness.seed name) (Array.copy amplitudes)
  in
  let a2 i = panel.(i mod Array.length panel) in
  let n1, n2 = if cfg.Harness.toy then (16, 6) else (24, 12) in
  let engine = Engine.make ~options:{ Engine.Options.default with n1; n2 } Engine.Mpde in
  (* The references the checks compare against, computed once before
     set-up and off the clock. *)
  let references = Array.map (fun a2 -> (a2, transient_mean ~a2)) panel in
  let check_at a2 r = solve_errors r ~reference:(List.assoc a2 (Array.to_list references)) in
  let solve i = Engine.run (problem ~a2:(a2 i)) engine in
  {
    Serial.name;
    inputs = Array.length panel;
    (* Set-up is a cold first solve, with a fresh solver workspace as a
       new process would start, of the middle amplitude whatever the
       seed. Three, as each takes most of a second. *)
    setup =
      (fun () ->
        Engine.reset_workspace_slot ();
        let r = Engine.run (problem ~a2:setup_amplitude) engine in
        fun () -> check_at setup_amplitude r);
    setup_reps = 3;
    solve;
    check = (fun i r -> check_at (a2 i) r);
    max_traced = 1;
  }

let run cfg = Serial.run cfg (spec cfg)
