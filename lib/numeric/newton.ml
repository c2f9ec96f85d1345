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
   a 513-word ring is a major-heap allocation on every call, and
   implicit time steps call [solve] thousands of times. *)
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

(* The problem's callbacks under their spans, without a closure per
   evaluation. *)
let residual_into problem x r = Telemetry.span_app "newton.residual" problem.residual_into x r

let solve ?(options = default_options) ?on_iteration problem x0 =
  Telemetry.span "newton" @@ fun () ->
  let n = Array.length x0 in
  (* The accepted iterate and its residual, and the line search's trial
     pair; an accepted trial swaps places with them. *)
  let x = ref (Array.copy x0) and trial = ref (Array.make n 0.0) in
  let r = ref (Array.make n 0.0) and rt = ref (Array.make n 0.0) in
  let delta = Array.make n 0.0 in
  let linsolve r delta = problem.solve_into !x r delta in
  residual_into problem !x !r;
  let rnorm = ref (Vec.norm_inf !r) in
  let iterations = ref 0 in
  let total_backtracks = ref 0 in
  let outcome = ref Max_iterations in
  (* Chronological residual-norm history (initial residual first),
     kept in a bounded ring. *)
  let capacity = max 1 (min history_capacity (options.max_iterations + 1)) in
  let hist = Array.make capacity 0.0 in
  let hist_next = ref 0 in
  let hist_total = ref 0 in
  let record_residual v =
    hist.(!hist_next) <- v;
    hist_next := (!hist_next + 1) mod capacity;
    incr hist_total;
    Telemetry.observe "newton.residual" v
  in
  record_residual !rnorm;
  (* One iteration; every exit raises [Exit] with [outcome] set. *)
  let iteration () =
    (match on_iteration with
    | Some f -> f !iterations !x !rnorm
    | None -> ());
    (* Fault-injection hook: [crash@newton] simulates a domain dying
       mid-iteration (the exception is not rescuable by the ladder —
       deliberately), [slow@newton] ages the budget clock. *)
    Resilience.Faultinject.fire_point Resilience.Faultinject.Newton_iter;
    (* A non-finite residual norm can never backtrack into tolerance:
       every ‖F‖ comparison against NaN is false, so the old code spun
       through max_iterations of useless halvings. Bail out at once. *)
    if not (Float.is_finite !rnorm) then begin
      outcome := Diverged;
      raise Exit
    end;
    if !rnorm <= options.abs_tol then begin
      outcome := Converged;
      raise Exit
    end;
    (match options.budget with
    | Some b -> (
        try Budget.tick_newton b
        with Budget.Exhausted e ->
          outcome := Exhausted e;
          raise Exit)
    | None -> ());
    (try Telemetry.span_app "newton.linsolve" linsolve !r delta
     with
     | Budget.Exhausted e ->
         outcome := Exhausted e;
         raise Exit
     | e ->
         outcome := Solver_failure (Printexc.to_string e);
         raise Exit);
    (* Reject non-finite Newton directions outright: damping a step
       that contains NaN/Inf still contains NaN/Inf. *)
    if not (Resilience.Guard.finite delta) then begin
      outcome := Solver_failure "non-finite Newton step";
      raise Exit
    end;
    (* Backtracking: accept the first damping that reduces ‖F‖∞, or,
       failing that, the smallest tried damping (helps escape regions
       where the residual is momentarily non-monotone). Either way
       the candidate is the last trial evaluated. *)
    let damping = ref 1.0 in
    let accepted = ref false in
    let candidate = ref false in
    let tries = ref 0 in
    while (not !accepted) && !tries <= options.max_backtracks do
      Array.blit !x 0 !trial 0 n;
      Vec.axpy (-. !damping) delta !trial;
      residual_into problem !trial !rt;
      let rtnorm = Vec.norm_inf !rt in
      if Float.is_finite rtnorm && rtnorm < !rnorm then begin
        accepted := true;
        candidate := true
      end
      else begin
        if Float.is_finite rtnorm && !tries = options.max_backtracks then
          (* last resort: take the tiny step anyway *)
          candidate := true;
        damping := !damping /. 2.0;
        incr tries;
        incr total_backtracks
      end
    done;
    if (not !candidate) || !damping < options.min_damping /. 2.0 then begin
      outcome := Stalled;
      raise Exit
    end;
    let step_size = !damping *. Vec.norm_inf delta in
    let accepted_x = !trial and accepted_r = !rt in
    trial := !x;
    rt := !r;
    x := accepted_x;
    r := accepted_r;
    rnorm := Vec.norm_inf !r;
    record_residual !rnorm;
    incr iterations;
    if not (Float.is_finite !rnorm) then begin
      outcome := Diverged;
      raise Exit
    end;
    if !rnorm <= options.abs_tol then begin
      outcome := Converged;
      raise Exit
    end;
    if step_size <= options.step_tol then begin
      outcome := (if !rnorm <= options.abs_tol then Converged else Stalled);
      raise Exit
    end
  in
  (try
     while !iterations < options.max_iterations do
       Telemetry.span "newton.iter" iteration
     done
   with Exit -> ());
  Telemetry.count ~by:!iterations "newton.iterations";
  Telemetry.count ~by:!total_backtracks "newton.backtracks";
  Telemetry.observe "newton.final_residual" !rnorm;
  let residual_history =
    let retained = min !hist_total capacity in
    let start = if !hist_total <= capacity then 0 else !hist_next in
    Array.init retained (fun k -> hist.((start + k) mod capacity))
  in
  ( !x,
    {
      outcome = !outcome;
      iterations = !iterations;
      residual_norm = !rnorm;
      backtracks = !total_backtracks;
      residual_history;
    } )
