module Vec = Linalg.Vec
module Budget = Resilience.Budget

type problem = {
  residual_into : Vec.t -> Vec.t -> unit;
  solve_into : Vec.t -> Vec.t -> Vec.t -> unit;
}

type options = {
  max_iterations : int;
  abs_tol : float;
  step_tol : float;
  max_backtracks : int;
  min_damping : float;
  budget : Budget.t option;
}

let default_options =
  {
    max_iterations = 50;
    abs_tol = 1e-9;
    step_tol = 1e-12;
    max_backtracks = 12;
    min_damping = 1.0 /. 4096.0;
    budget = None;
  }

type outcome =
  | Converged
  | Stalled
  | Max_iterations
  | Diverged
  | Exhausted of Budget.exhaustion
  | Solver_failure of string

type stats = {
  outcome : outcome;
  iterations : int;
  residual_norm : float;
  backtracks : int;
  residual_history : float array;
}

(* The history is bounded so a pathological run with a huge iteration
   cap cannot grow it without bound; 512 comfortably covers every
   configured solver in the repo. A run records at most
   [max_iterations + 1] residuals, so the ring is no longer than that:
   a 513-word ring is a major-heap allocation, and a workspace keeps
   its ring across solves with the same cap. *)
let history_capacity = 512

let converged s = s.outcome = Converged

let pp_outcome ppf = function
  | Converged -> Format.fprintf ppf "converged"
  | Stalled -> Format.fprintf ppf "stalled"
  | Max_iterations -> Format.fprintf ppf "max-iterations"
  | Diverged -> Format.fprintf ppf "diverged"
  | Exhausted e -> Format.fprintf ppf "exhausted(%a)" Budget.pp_exhaustion e
  | Solver_failure msg -> Format.fprintf ppf "solver-failure(%s)" msg

let report_outcome stats =
  match stats.outcome with
  | Converged -> Resilience.Report.Converged
  | Exhausted e -> Resilience.Report.Exhausted e
  | o -> Resilience.Report.Failed (Format.asprintf "%a" pp_outcome o)

(* [Vec.norm_inf], here so that it inlines: a call returns its norm
   boxed, and the loop takes about six norms per solve. *)
let[@inline] norm_inf x =
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !m || Float.is_nan a then m := a
  done;
  !m

let no_problem =
  {
    residual_into = (fun _ _ -> invalid_arg "Newton: no problem");
    solve_into = (fun _ _ _ -> invalid_arg "Newton: no problem");
  }

(* The loop's buffers and state. [x]/[r] are the accepted iterate and
   its residual, [trial]/[rt] the line search's trial pair; an accepted
   trial swaps places with them. The residual-norm history is a ring
   of the last [Array.length hist] norms, chronological from
   [hist_next] once it has wrapped; [norm.rnorm] is ‖r‖∞, in a
   float-only record so that updating it allocates nothing. The
   problem, options and hook of the current solve sit here too, so
   that the iteration is a top-level function and a solve builds no
   closure. *)
type norm = { mutable rnorm : float }

type workspace = {
  mutable x : Vec.t;
  mutable r : Vec.t;
  mutable trial : Vec.t;
  mutable rt : Vec.t;
  delta : Vec.t;
  mutable hist : float array;
  mutable hist_next : int;
  mutable hist_total : int;
  norm : norm;
  mutable iterations : int;
  mutable backtracks : int;
  mutable outcome : outcome;
  mutable problem : problem;
  mutable options : options;
  mutable on_iteration : (int -> Vec.t -> float -> unit) option;
}

let workspace n =
  {
    x = Array.make n 0.0;
    r = Array.make n 0.0;
    trial = Array.make n 0.0;
    rt = Array.make n 0.0;
    delta = Array.make n 0.0;
    hist = [||];
    hist_next = 0;
    hist_total = 0;
    norm = { rnorm = 0.0 };
    iterations = 0;
    backtracks = 0;
    outcome = Max_iterations;
    problem = no_problem;
    options = default_options;
    on_iteration = None;
  }

let iterate ws = ws.x

let iterations ws = ws.iterations

(* The problem's callbacks under their spans, without a closure per
   evaluation. *)
let residual_into problem x r = Telemetry.span_app "newton.residual" problem.residual_into x r

let linsolve ws () = ws.problem.solve_into ws.x ws.r ws.delta

let record_residual ws v =
  ws.hist.(ws.hist_next) <- v;
  ws.hist_next <- (ws.hist_next + 1) mod Array.length ws.hist;
  ws.hist_total <- ws.hist_total + 1;
  Telemetry.observe "newton.residual" v

let finish ws outcome =
  ws.outcome <- outcome;
  raise Exit

(* One iteration; every exit raises [Exit] with [outcome] set. *)
let iteration ws () =
  let options = ws.options in
  (match ws.on_iteration with
  | Some f -> f ws.iterations ws.x ws.norm.rnorm
  | None -> ());
  (* Fault-injection hook: [crash@newton] simulates a domain dying
     mid-iteration (the exception is not rescuable by the ladder —
     deliberately), [slow@newton] ages the budget clock. *)
  Resilience.Faultinject.fire_point Resilience.Faultinject.Newton_iter;
  (* A non-finite residual norm can never backtrack into tolerance:
     every ‖F‖ comparison against NaN is false, so the old code spun
     through max_iterations of useless halvings. Bail out at once. *)
  if not (Float.is_finite ws.norm.rnorm) then finish ws Diverged;
  if ws.norm.rnorm <= options.abs_tol then finish ws Converged;
  (match options.budget with
  | Some b -> (
      try Budget.tick_newton b with Budget.Exhausted e -> finish ws (Exhausted e))
  | None -> ());
  (try Telemetry.span_app "newton.linsolve" linsolve ws () with
  | Budget.Exhausted e -> finish ws (Exhausted e)
  | e -> finish ws (Solver_failure (Printexc.to_string e)));
  let delta = ws.delta in
  (* Reject non-finite Newton directions outright: damping a step
     that contains NaN/Inf still contains NaN/Inf. *)
  if not (Resilience.Guard.finite delta) then
    finish ws (Solver_failure "non-finite Newton step");
  (* Backtracking: accept the first damping that reduces ‖F‖∞, or,
     failing that, the smallest tried damping (helps escape regions
     where the residual is momentarily non-monotone). Either way
     the candidate is the last trial evaluated. *)
  let x = ws.x and trial = ws.trial and rt = ws.rt in
  let rnorm = ws.norm.rnorm in
  let damping = ref 1.0 in
  let accepted = ref false in
  let candidate = ref false in
  let tries = ref 0 in
  while (not !accepted) && !tries <= options.max_backtracks do
    Array.blit x 0 trial 0 (Array.length x);
    Linalg.Kernel.axpy (-. !damping) delta trial;
    residual_into ws.problem trial rt;
    let rtnorm = norm_inf rt in
    if Float.is_finite rtnorm && rtnorm < rnorm then begin
      accepted := true;
      candidate := true
    end
    else begin
      if Float.is_finite rtnorm && !tries = options.max_backtracks then
        (* last resort: take the tiny step anyway *)
        candidate := true;
      damping := !damping /. 2.0;
      incr tries;
      ws.backtracks <- ws.backtracks + 1
    end
  done;
  if (not !candidate) || !damping < options.min_damping /. 2.0 then finish ws Stalled;
  let step_size = !damping *. norm_inf delta in
  ws.trial <- x;
  ws.rt <- ws.r;
  ws.x <- trial;
  ws.r <- rt;
  ws.norm.rnorm <- norm_inf rt;
  record_residual ws ws.norm.rnorm;
  ws.iterations <- ws.iterations + 1;
  if not (Float.is_finite ws.norm.rnorm) then finish ws Diverged;
  if ws.norm.rnorm <= options.abs_tol then finish ws Converged;
  if step_size <= options.step_tol then
    finish ws (if ws.norm.rnorm <= options.abs_tol then Converged else Stalled)

let run ws x0 =
  let options = ws.options in
  Array.blit x0 0 ws.x 0 (Array.length x0);
  residual_into ws.problem ws.x ws.r;
  ws.norm.rnorm <- norm_inf ws.r;
  ws.iterations <- 0;
  ws.backtracks <- 0;
  ws.outcome <- Max_iterations;
  (* Chronological residual-norm history (initial residual first),
     kept in a bounded ring. *)
  let capacity = max 1 (min history_capacity (options.max_iterations + 1)) in
  if Array.length ws.hist <> capacity then ws.hist <- Array.make capacity 0.0;
  ws.hist_next <- 0;
  ws.hist_total <- 0;
  record_residual ws ws.norm.rnorm;
  (try
     while ws.iterations < options.max_iterations do
       Telemetry.span_app "newton.iter" iteration ws ()
     done
   with Exit -> ());
  Telemetry.count ~by:ws.iterations "newton.iterations";
  Telemetry.count ~by:ws.backtracks "newton.backtracks";
  Telemetry.observe "newton.final_residual" ws.norm.rnorm;
  ws.outcome

let solve_in ?(options = default_options) ?on_iteration ws problem x0 =
  if Array.length x0 <> Array.length ws.x then invalid_arg "Newton.solve_in: dimension mismatch";
  ws.problem <- problem;
  ws.options <- options;
  ws.on_iteration <- on_iteration;
  Telemetry.span_app "newton" run ws x0

let solve ?options ?on_iteration problem x0 =
  let ws = workspace (Array.length x0) in
  let _ : outcome = solve_in ?options ?on_iteration ws problem x0 in
  let residual_history =
    let capacity = Array.length ws.hist in
    let retained = min ws.hist_total capacity in
    let start = if ws.hist_total <= capacity then 0 else ws.hist_next in
    Array.init retained (fun k -> ws.hist.((start + k) mod capacity))
  in
  ( ws.x,
    {
      outcome = ws.outcome;
      iterations = ws.iterations;
      residual_norm = ws.norm.rnorm;
      backtracks = ws.backtracks;
      residual_history;
    } )
