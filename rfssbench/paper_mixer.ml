(* paper-mixer: the paper's headline problem — the balanced
   LO-doubling mixer, LO 450 MHz, fd 15 kHz, bit-modulated RF near
   900 MHz, on the 40x30 grid — solved serially through Engine.run,
   each solve with its own seeded 6-bit pattern. *)

let name = "paper-mixer"

let f_lo = 450e6

let fd = 15e3

let nodes = Circuits.balanced_mixer_nodes

let problem bits =
  Engine.Problem.make ~label:"balanced-mixer" ~output:nodes.Circuits.out_plus
    ~output_b:nodes.Circuits.out_minus ~f_fast:f_lo ~fd (fun () ->
      let rf_signal, _ = Circuits.paper_rf_bitstream ~bits ~f_lo ~fd () in
      Circuits.balanced_mixer ~f_lo ~rf_signal ())

(* Recover the bit pattern from the FIG4 baseband envelope, which is
   the down-converted fd tone gated by the bits. Bit b owns the t2
   samples of (b, b+1] x Td/bits — the sample on a boundary still shows
   the earlier bit — and its level is the largest magnitude there (a
   mean would fade near the tone's zero crossings). Every 0-bit must sit
   below half the weakest 1-bit. *)
let bit_levels env ~bits =
  let n2 = Array.length env in
  let levels = Array.make bits 0.0 in
  Array.iteri
    (fun j v ->
      let b = (j + n2 - 1) mod n2 * bits / n2 in
      levels.(b) <- Float.max levels.(b) (Float.abs v))
    env;
  levels

let pattern_errors (r : Engine.Result.t) bits =
  let levels = bit_levels r.Engine.Result.waveform.Engine.Result.values ~bits:(Array.length bits) in
  let weakest_one = ref infinity and strongest_zero = ref 0.0 in
  Array.iteri
    (fun b level ->
      if bits.(b) then weakest_one := Float.min !weakest_one level
      else strongest_zero := Float.max !strongest_zero level)
    levels;
  Harness.expect
    (!strongest_zero < 0.5 *. !weakest_one)
    (Printf.sprintf "bit pattern %s not recovered from envelope levels [%s]"
       (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits)))
       (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") levels))))

let solve_errors (r : Engine.Result.t) bits =
  match r.Engine.Result.mpde_solution with
  | None -> [ "no MPDE solution" ]
  | Some sol ->
      let residual = Mpde.Solver.residual_norm_check sol in
      Harness.expect r.Engine.Result.converged "solve did not converge"
      @ Harness.expect (residual <= 1e-8)
          (Printf.sprintf "residual %.3e above 1e-8" residual)
      @ pattern_errors r bits

let setup_bits = [| true; false; true; false; true; false |]

let spec (cfg : Harness.config) =
  let patterns = Gen.mixer_patterns ~seed:cfg.Harness.seed in
  let inputs = if cfg.Harness.toy then 2 else Array.length patterns in
  let bits i = patterns.(i mod inputs) in
  let n1, n2 = if cfg.Harness.toy then (12, 12) else (40, 30) in
  let engine = Engine.make ~options:{ Engine.Options.default with n1; n2 } Engine.Mpde in
  let solve i = Engine.run (problem (bits i)) engine in
  {
    Serial.name;
    inputs;
    (* Set-up is a cold first solve, with a fresh solver workspace as a
       new process would start, of the same pattern whatever the seed:
       solve cost differs from pattern to pattern. *)
    setup =
      (fun () ->
        Engine.reset_workspace_slot ();
        let r = Engine.run (problem setup_bits) engine in
        fun () -> solve_errors r setup_bits);
    setup_reps = 5;
    solve;
    check = (fun k r -> solve_errors r (bits k));
    max_traced = 20;
  }

let run cfg = Serial.run cfg (spec cfg)
