(* The built-in circuit fixtures, moved out of bin/rfss.ml so the CLI
   and the solve service validate requests against the same catalog:
   a job names a circuit, the catalog knows how to build it for a
   given tone pair and which node is its output. *)

module W = Circuit.Waveform

type t = {
  name : string;
  description : string;
  build : f_fast:float -> fd:float -> Circuits.built;
  default_fast : float;
  default_fd : float;
  output_node : string;
  output_node_b : string option;  (** for differential outputs *)
}

let all =
  [
    {
      name = "rc";
      description = "RC lowpass driven by two closely spaced tones";
      build =
        (fun ~f_fast ~fd ->
          Circuits.rc_lowpass
            ~drive:
              (W.sum
                 (W.sine ~amplitude:1.0 ~freq:f_fast ())
                 (W.sine ~amplitude:1.0 ~freq:(f_fast +. fd) ()))
            ());
      default_fast = 1e6;
      default_fd = 1e3;
      output_node = "out";
      output_node_b = None;
    };
    {
      name = "rectifier";
      description = "half-wave diode rectifier, single tone";
      build =
        (fun ~f_fast ~fd:_ ->
          Circuits.diode_rectifier ~drive:(W.sine ~amplitude:2.0 ~freq:f_fast ()) ());
      default_fast = 1e6;
      default_fd = 1e4;
      output_node = "out";
      output_node_b = None;
    };
    {
      name = "detector";
      description = "diode envelope detector on a two-tone beat";
      build =
        (fun ~f_fast ~fd ->
          Circuits.envelope_detector ~f1:f_fast ~f2:(f_fast +. fd) ~amplitude:1.0 ());
      default_fast = 1e6;
      default_fd = 2e4;
      output_node = "out";
      output_node_b = None;
    };
    {
      name = "ideal-mixer";
      description = "behavioural multiplying mixer (paper §2 ideal mixing)";
      build =
        (fun ~f_fast ~fd ->
          Circuits.ideal_mixer
            ~lo:(W.cosine ~amplitude:1.0 ~freq:f_fast ())
            ~rf:(W.cosine ~amplitude:1.0 ~freq:(f_fast -. fd) ())
            ());
      default_fast = 1e9;
      default_fd = 10e3;
      output_node = "out";
      output_node_b = None;
    };
    {
      name = "unbalanced-mixer";
      description = "single-MOSFET switching mixer";
      build =
        (fun ~f_fast ~fd ->
          Circuits.unbalanced_mixer ~f_lo:f_fast
            ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(f_fast +. fd) ())
            ~rf_amplitude:0.05 ());
      default_fast = 1e6;
      default_fd = 1e4;
      output_node = "out";
      output_node_b = None;
    };
    {
      name = "balanced-mixer";
      description = "paper §3 balanced LO-doubling mixer, bit-modulated RF";
      build =
        (fun ~f_fast ~fd ->
          let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo:f_fast ~fd () in
          Circuits.balanced_mixer ~f_lo:f_fast ~rf_signal ());
      default_fast = 450e6;
      default_fd = 15e3;
      output_node = Circuits.balanced_mixer_nodes.Circuits.out_plus;
      output_node_b = Some Circuits.balanced_mixer_nodes.Circuits.out_minus;
    };
  ]

let find name =
  match List.find_opt (fun f -> f.name = name) all with
  | Some f -> Ok f
  | None ->
      Error
        (Printf.sprintf "unknown circuit %S; try: %s" name
           (String.concat ", " (List.map (fun f -> f.name) all)))

(* The one tone validator, shared by the CLI and rfss.jobs/1: tones
   default to the fixture's, must be finite and > 0, and the MPDE's
   sheared time scales exist only for fd < f_fast ([Mpde.Shear.make]'s
   precondition). The single-time engines lock onto one tone and run
   with fd > f_fast too. *)
let resolve ?engine ?f_fast ?fd name =
  let ( let* ) = Result.bind in
  let tone what v =
    if Float.is_finite v && v > 0.0 then Ok v
    else Error (Printf.sprintf "%s must be finite and > 0, got %g" what v)
  in
  let* fixture = find name in
  let* f_fast = tone "f_fast" (Option.value f_fast ~default:fixture.default_fast) in
  let* fd = tone "fd" (Option.value fd ~default:fixture.default_fd) in
  match engine with
  | Some Engine.Mpde when fd >= f_fast ->
      Error
        (Printf.sprintf "mpde needs fd < f_fast, got fd %g >= f_fast %g" fd
           f_fast)
  | _ -> Ok (fixture, f_fast, fd)

let output_value fixture mna x =
  match fixture.output_node_b with
  | None -> Circuit.Mna.voltage mna x fixture.output_node
  | Some b -> Circuit.Mna.differential_voltage mna x fixture.output_node b

(* Bridge a fixture to the unified engine API. *)
let problem_of ?(period = Engine.Problem.Fast_tone) ?label fixture ~f_fast ~fd =
  Engine.Problem.make
    ~label:(Option.value label ~default:fixture.name)
    ~period ~output:fixture.output_node ?output_b:fixture.output_node_b ~f_fast
    ~fd
    (fun () -> fixture.build ~f_fast ~fd)

let digest f =
  Engine.Problem.digest (problem_of f ~f_fast:f.default_fast ~fd:f.default_fd)
