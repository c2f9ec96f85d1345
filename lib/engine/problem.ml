type period_choice = Fast_tone | Difference_tone

type t = {
  label : string;
  build : unit -> Circuits.built;
  f_fast : float;
  fd : float;
  period : period_choice;
  output : string;
  output_b : string option;
}

let make ?(label = "problem") ?(period = Fast_tone) ?(output = "out") ?output_b
    ~f_fast ~fd build =
  if not (f_fast > 0.0) then invalid_arg "Problem.make: f_fast must be > 0";
  if not (fd > 0.0) then invalid_arg "Problem.make: fd must be > 0";
  { label; build; f_fast; fd; period; output; output_b }

let engine_period p =
  match p.period with
  | Fast_tone -> 1.0 /. p.f_fast
  | Difference_tone -> 1.0 /. p.fd

let digest p = Circuit.Netlist.digest (p.build ()).Circuits.netlist
