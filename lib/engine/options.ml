type t = {
  tol : float;
  max_newton : int;
  warm_start : bool;
  budget : Resilience.Budget.t option;
  steps_per_period : int;
  segments : int;
  steps_per_segment : int;
  harmonics : int;
  points : int;
  n1 : int;
  n2 : int;
  initial_surface : Linalg.Vec.t option;
}

let default =
  {
    tol = 1e-8;
    max_newton = 50;
    warm_start = true;
    budget = None;
    steps_per_period = 256;
    segments = 8;
    steps_per_segment = 50;
    harmonics = 8;
    points = 64;
    n1 = 32;
    n2 = 24;
    initial_surface = None;
  }

let with_budget budget o = { o with budget }

(* Watchdog demotion for a repeatedly failing job: roughly quarter the
   work (half per axis) and loosen the target two decades, floored so a
   degraded grid still resolves the coarse shape of the waveform. *)
let degrade o =
  let halve ~floor v = max floor (v / 2) in
  {
    o with
    tol = Float.min 1e-3 (o.tol *. 100.0);
    n1 = halve ~floor:8 o.n1;
    n2 = halve ~floor:6 o.n2;
    steps_per_period = halve ~floor:64 o.steps_per_period;
    steps_per_segment = halve ~floor:16 o.steps_per_segment;
    harmonics = halve ~floor:4 o.harmonics;
    points = halve ~floor:16 o.points;
  }

let to_mpde o =
  {
    Mpde.Solver.default_options with
    max_newton = o.max_newton;
    tol = o.tol;
    budget = o.budget;
  }
