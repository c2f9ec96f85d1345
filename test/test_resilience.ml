(* Tests for the solver resilience layer: guarded evaluation, budget
   enforcement, the escalation ladder, and their integration into
   Newton, GMRES, continuation, and the MPDE solver. *)

module Budget = Resilience.Budget
module Guard = Resilience.Guard
module Ladder = Resilience.Ladder
module Report = Resilience.Report

let pi = 4.0 *. atan 1.0

let csr_1x1 v =
  let coo = Sparse.Coo.create ~capacity:1 1 1 in
  Sparse.Coo.add coo 0 0 v;
  Sparse.Csr.of_coo coo

(* ---------- Guard ---------- *)

(* The violations [Guard.guarded] reports for an evaluation that writes
   [values]. *)
let guarded_violations ?block_size values =
  let seen = ref [] in
  let r = Array.make (Array.length values) 0.0 in
  Guard.guarded ~context:"res" ?block_size
    ~on_violation:(fun v -> seen := v :: !seen)
    (fun _ r -> Array.blit values 0 r 0 (Array.length values))
    [||] r;
  !seen

let test_guard_scan () =
  Alcotest.(check int) "clean" 0 (List.length (guarded_violations [| 1.0; -2.0; 0.0 |]));
  (match guarded_violations ~block_size:2 [| 1.0; 2.0; nan; 4.0 |] with
  | [ v ] ->
      Alcotest.(check int) "index" 2 v.Guard.index;
      Alcotest.(check (option int)) "block" (Some 1) v.Guard.block;
      Alcotest.(check (option int)) "offset" (Some 0) v.Guard.offset;
      Alcotest.(check string) "context" "res" v.Guard.context
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  Alcotest.(check bool) "finite" false (Guard.finite [| infinity |])

(* ---------- Budget ---------- *)

let test_budget_iteration_caps () =
  let b = Budget.make ~max_newton:3 () in
  Budget.tick_newton b;
  Budget.tick_newton b;
  Budget.tick_newton b;
  (match (try Budget.tick_newton b; None with Budget.Exhausted e -> Some e) with
  | Some (Budget.Newton_iterations { limit; used }) ->
      Alcotest.(check int) "limit" 3 limit;
      Alcotest.(check bool) "used past limit" true (used > limit)
  | _ -> Alcotest.fail "expected Newton_iterations exhaustion");
  Alcotest.(check bool) "exhausted is sticky" true (Budget.exhausted b <> None)

let test_budget_wall_clock_tolerance () =
  (* A 50 ms deadline must fire within a generous tolerance of the
     requested instant — not hang, not fire seconds late. *)
  let b = Budget.make ~wall_seconds:0.05 () in
  let t0 = Unix.gettimeofday () in
  while Budget.exhausted b = None && Unix.gettimeofday () -. t0 < 5.0 do
    Unix.sleepf 0.005
  done;
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "fired" true (Budget.exhausted b <> None);
  Alcotest.(check bool) "fired near the deadline" true (waited >= 0.04 && waited < 1.0)

let test_budget_parent_chain () =
  let parent = Budget.make ~max_newton:5 () in
  let child = Budget.make ~parent () in
  (* Child has no limits of its own, but ticks propagate up and checks
     consult the ancestors. *)
  for _ = 1 to 5 do
    Budget.tick_newton child
  done;
  Alcotest.(check bool) "propagated to the parent" true
    (try Budget.tick_newton parent; false with Budget.Exhausted _ -> true);
  Alcotest.(check bool) "child sees parent limit" true
    (try Budget.tick_newton child; false with Budget.Exhausted _ -> true)

(* ---------- Newton regressions ---------- *)

(* Residual goes NaN in a region of the iterate space. *)
let test_newton_diverged_on_nan () =
  let problem =
    {
      Numeric.Newton.residual_into = (fun _ r -> r.(0) <- nan);
      solve_into = (fun _ _ d -> d.(0) <- 0.0);
    }
  in
  let _, stats = Numeric.Newton.solve problem [| 0.0 |] in
  Alcotest.(check bool) "diverged" true (stats.Numeric.Newton.outcome = Numeric.Newton.Diverged);
  (* Must bail out immediately, not burn max_iterations of backtracks. *)
  Alcotest.(check int) "no iterations wasted" 0 stats.Numeric.Newton.iterations

let test_newton_rejects_nonfinite_step () =
  let problem =
    {
      Numeric.Newton.residual_into = (fun x r -> r.(0) <- x.(0) -. 1.0);
      solve_into = (fun _ _ d -> d.(0) <- nan);
    }
  in
  let _, stats = Numeric.Newton.solve problem [| 0.0 |] in
  match stats.Numeric.Newton.outcome with
  | Numeric.Newton.Solver_failure _ -> ()
  | _ -> Alcotest.failf "expected Solver_failure after %d iterations" stats.Numeric.Newton.iterations

let test_newton_budget_exhaustion () =
  (* A slowly converging scalar problem with a 2-iteration budget. *)
  let problem =
    {
      Numeric.Newton.residual_into = (fun x r -> r.(0) <- x.(0));
      (* Deliberately weak step so convergence needs many iterations. *)
      solve_into = (fun _ r d -> d.(0) <- 0.1 *. r.(0));
    }
  in
  let options =
    { Numeric.Newton.default_options with budget = Some (Budget.make ~max_newton:2 ()) }
  in
  let _, stats = Numeric.Newton.solve ~options problem [| 1.0 |] in
  match stats.Numeric.Newton.outcome with
  | Numeric.Newton.Exhausted (Budget.Newton_iterations _) ->
      Alcotest.(check bool) "stopped early" true (stats.Numeric.Newton.iterations <= 3)
  | _ -> Alcotest.failf "expected Exhausted after %d iterations" stats.Numeric.Newton.iterations

(* ---------- GMRES regressions ---------- *)

let test_gmres_happy_breakdown () =
  (* With a diagonal operator and b in a 1-dimensional invariant
     subspace the Krylov space is exhausted after one iteration: the
     Hessenberg subdiagonal is exactly zero. The solver must detect the
     breakdown, return the exact solution, and not divide by zero. *)
  let y = Array.make 3 0.0 in
  let op v =
    Linalg.Kernel.scale_into 2.0 v y;
    y
  in
  let b = [| 4.0; 0.0; 0.0 |] in
  let r = Sparse.Krylov.gmres ~restart:10 ~max_iter:50 ~tol:1e-12 op b in
  Alcotest.(check bool) "converged" true r.Sparse.Krylov.converged;
  Alcotest.(check bool) "exact" true (Float.abs (r.Sparse.Krylov.x.(0) -. 2.0) < 1e-10);
  Alcotest.(check bool) "finite" true (Guard.finite r.Sparse.Krylov.x);
  Alcotest.(check bool) "breakdown detected fast" true (r.Sparse.Krylov.iterations <= 2)

let test_gmres_nan_operator_terminates () =
  (* An operator that poisons every product must not NaN-pollute the
     Givens QR or loop forever on restarts; the result is a clean
     non-converged report with the finite initial iterate. *)
  let y = Array.make 2 0.0 in
  let op _ =
    Array.fill y 0 2 nan;
    y
  in
  let b = [| 1.0; 2.0 |] in
  let r = Sparse.Krylov.gmres ~restart:5 ~max_iter:100 op b in
  Alcotest.(check bool) "not converged" false r.Sparse.Krylov.converged;
  Alcotest.(check bool) "iterate stays finite" true (Guard.finite r.Sparse.Krylov.x)

let test_gmres_budget () =
  (* 100-dim Laplacian-ish operator under an already-exhausted budget:
     GMRES checks the budget every inner iteration, so it must stop
     after the first with converged=false rather than raising. *)
  let n = 100 in
  let y = Array.make n 0.0 in
  let op v =
    for i = 0 to n - 1 do
      let left = if i > 0 then v.(i - 1) else 0.0 in
      let right = if i < n - 1 then v.(i + 1) else 0.0 in
      y.(i) <- (2.0 *. v.(i)) -. left -. right
    done;
    y
  in
  let b = Array.make n 1.0 in
  let budget = Budget.make ~max_newton:0 () in
  (try Budget.tick_newton budget with Budget.Exhausted _ -> ());
  let r = Sparse.Krylov.gmres ~restart:20 ~max_iter:500 ~tol:1e-14 ~budget op b in
  Alcotest.(check bool) "not converged" false r.Sparse.Krylov.converged;
  Alcotest.(check bool) "stopped within 1 iteration" true (r.Sparse.Krylov.iterations <= 1);
  Alcotest.(check bool) "finite" true (Guard.finite r.Sparse.Krylov.x)

(* ---------- Continuation ---------- *)

let test_continuation_total_step_cap () =
  (* A family that never converges: every Newton solve fails, so the
     step halves forever. max_total_steps must bound the number of
     Newton solves attempted. *)
  let solves = ref 0 in
  let problem_at _lambda =
    {
      Numeric.Newton.residual_into =
        (fun x r ->
          incr solves;
          r.(0) <- (x.(0) *. x.(0)) +. 1.0);
      solve_into = (fun _ r d -> d.(0) <- r.(0));
    }
  in
  let newton_options = { Numeric.Newton.default_options with max_iterations = 3 } in
  let _, stats =
    Numeric.Continuation.trace ~max_total_steps:10 ~newton_options ~problem_at
      ~x0:[| 0.0 |] ()
  in
  Alcotest.(check bool) "not converged" false stats.Numeric.Continuation.converged;
  let total = stats.Numeric.Continuation.steps_taken + stats.Numeric.Continuation.steps_rejected in
  Alcotest.(check bool) "bounded" true (total <= 10)

let test_continuation_budget () =
  let problem_at lambda =
    {
      Numeric.Newton.residual_into = (fun x r -> r.(0) <- x.(0) -. lambda);
      solve_into = (fun _ r d -> d.(0) <- r.(0));
    }
  in
  let budget = Budget.make ~max_newton:2 () in
  let _, stats = Numeric.Continuation.trace ~budget ~problem_at ~x0:[| 0.0 |] () in
  Alcotest.(check bool) "not converged" false stats.Numeric.Continuation.converged;
  Alcotest.(check bool) "exhaustion recorded" true
    (stats.Numeric.Continuation.exhausted <> None)

(* ---------- Ladder ---------- *)

let test_ladder_order_and_skip () =
  let log = ref [] in
  let stage name applies result =
    {
      Ladder.name;
      applies;
      attempt =
        (fun () ->
          log := name :: !log;
          result);
    }
  in
  let stages =
    [
      stage "first" Ladder.always (Error (Ladder.Nonlinear, "no"));
      (* Linear-stall rung must be skipped after a nonlinear failure. *)
      stage "linear-only" Ladder.on_linear_stall (Ok "wrong");
      stage "recover" Ladder.on_nonlinear (Ok "recovered");
      stage "after-success" Ladder.always (Ok "never runs");
    ]
  in
  let run = Ladder.run stages in
  Alcotest.(check (option string)) "strategy" (Some "recover") run.Ladder.strategy;
  Alcotest.(check (option string)) "value" (Some "recovered") run.Ladder.value;
  Alcotest.(check (list string)) "execution order" [ "first"; "recover" ] (List.rev !log);
  let statuses =
    List.map (fun r -> (r.Ladder.stage, r.Ladder.status)) run.Ladder.records
  in
  Alcotest.(check bool) "deterministic records" true
    (statuses
    = [
        ("first", `Failed "no");
        ("linear-only", `Skipped);
        ("recover", `Success);
        ("after-success", `Skipped);
      ])

let test_ladder_budget_stops_climb () =
  let b = Budget.make ~max_newton:1 () in
  let stages =
    [
      {
        Ladder.name = "burn";
        applies = Ladder.always;
        attempt =
          (fun () ->
            Budget.tick_newton b;
            Budget.tick_newton b;
            Ok "unreachable");
      };
      { Ladder.name = "next"; applies = Ladder.always; attempt = (fun () -> Ok "x") };
    ]
  in
  let run = Ladder.run ~budget:b stages in
  Alcotest.(check bool) "no value" true (run.Ladder.value = None);
  (match run.Ladder.last_failure with
  | Some (Ladder.Exhausted _) -> ()
  | _ -> Alcotest.fail "expected Exhausted last failure");
  (* The remaining rung must be skipped, not attempted. *)
  match List.map (fun r -> r.Ladder.status) run.Ladder.records with
  | [ `Failed _; `Skipped ] -> ()
  | _ -> Alcotest.fail "expected [failed; skipped] records"

(* ---------- Report ---------- *)

let test_report_json () =
  let stages =
    [
      { Ladder.name = "a"; applies = Ladder.always; attempt = (fun () -> Error (Ladder.Nonlinear, "x \"quoted\"")) };
      { Ladder.name = "b"; applies = Ladder.on_nonlinear; attempt = (fun () -> Ok 1) };
    ]
  in
  let run = Ladder.run stages in
  let report =
    Report.of_ladder
      ~iterations_of:(fun _ -> 2)
      ~residual_trajectory:[| 1.0; 0.1 |] ~residual_norm:1e-10 ~newton_iterations:4
      ~linear_iterations:7 ~wall_seconds:0.25 run
  in
  Alcotest.(check bool) "success" true ((report.Report.outcome = Report.Converged));
  let json = Report.to_json_string report in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "single line" false (String.contains json '\n');
  Alcotest.(check bool) "has strategy" true (contains "\"strategy\":\"b\"");
  Alcotest.(check bool) "escapes quotes" true (contains "\\\"quoted\\\"")

(* ---------- MPDE integration ---------- *)

(* A 1-unknown DAE with ferociously stiff exponential nonlinearity
   (think: back-to-back diodes with emission coefficient ~1/30 V).
   Driven hard, plain Newton from the zero state overshoots into the
   exponential wall and creeps at the minimum damping; source-ramp
   continuation walks in reliably. *)
let stiff_dae ~amplitude ~freq =
  let f x = exp (30.0 *. (x -. 1.0)) -. exp (-30.0 *. (x +. 1.0)) +. (0.1 *. x) in
  let g x = (30.0 *. exp (30.0 *. (x -. 1.0))) +. (30.0 *. exp (-30.0 *. (x +. 1.0))) +. 0.1 in
  {
    Numeric.Dae.size = 1;
    eval_f = (fun x -> [| f x.(0) |]);
    eval_q = (fun x -> [| 1e-6 *. x.(0) |]);
    jacobians = (fun x -> (csr_1x1 (g x.(0)), csr_1x1 1e-6));
    source = (fun t -> [| amplitude *. cos (2.0 *. pi *. freq *. t) |]);
    fast = None;
  }

let mpde_fixture ?(n1 = 8) ?(n2 = 6) dae =
  let shear = Mpde.Shear.make ~fast_freq:1e3 ~slow_freq:1e2 in
  let grid = Mpde.Grid.make ~shear ~n1 ~n2 in
  let system = Mpde.Assemble.of_dae dae in
  (system, grid)

let test_mpde_ladder_recovers () =
  let dae = stiff_dae ~amplitude:1e4 ~freq:1e3 in
  let system, grid = mpde_fixture dae in
  (* Plain Newton alone must fail on this problem… *)
  let bare =
    Mpde.Solver.solve
      ~options:{ Mpde.Solver.default_options with allow_continuation = false }
      system grid
  in
  Alcotest.(check bool) "plain newton fails" false bare.Mpde.Solver.stats.Mpde.Solver.converged;
  (* …and the full ladder must recover via a continuation rung. *)
  let sol = Mpde.Solver.solve system grid in
  let stats = sol.Mpde.Solver.stats in
  Alcotest.(check bool) "ladder recovers" true stats.Mpde.Solver.converged;
  Alcotest.(check bool) "via continuation" true
    (stats.Mpde.Solver.strategy = "source-ramp" || stats.Mpde.Solver.strategy = "ptc-ramp");
  Alcotest.(check bool) "report successful" true ((sol.Mpde.Solver.report.Report.outcome = Report.Converged));
  (* The winning stage is recorded as the strategy in the report too. *)
  Alcotest.(check (option string)) "report strategy" (Some stats.Mpde.Solver.strategy)
    sol.Mpde.Solver.report.Report.strategy

let test_mpde_nan_poisoned_terminates () =
  (* Every f evaluation away from a tiny neighbourhood of 0 yields NaN:
     nothing can converge, but the solve must terminate with a
     structured failure report, not crash or hang. *)
  let f x = if Float.abs x < 1e-12 then 0.0 else nan in
  let dae =
    {
      Numeric.Dae.size = 1;
      eval_f = (fun x -> [| f x.(0) |]);
      eval_q = (fun x -> [| 1e-6 *. x.(0) |]);
      jacobians = (fun x -> (csr_1x1 (if Float.abs x.(0) < 1e-12 then 1.0 else nan), csr_1x1 1e-6));
      source = (fun t -> [| cos (2.0 *. pi *. 1e3 *. t) |]);
      fast = None;
    }
  in
  let system, grid = mpde_fixture dae in
  let sol = Mpde.Solver.solve system grid in
  Alcotest.(check bool) "not converged" false sol.Mpde.Solver.stats.Mpde.Solver.converged;
  (match sol.Mpde.Solver.report.Report.outcome with
  | Report.Failed _ | Report.Exhausted _ -> ()
  | Report.Converged -> Alcotest.fail "poisoned solve cannot report Converged");
  Alcotest.(check bool) "every stage recorded" true
    (List.length sol.Mpde.Solver.report.Report.stages >= 3)

let test_mpde_budget_exhaustion () =
  (* 40x30 grid (the paper's size) with a budget too small to finish:
     the solve must return quickly with a structured Exhausted report. *)
  let dae = stiff_dae ~amplitude:5.0 ~freq:1e3 in
  let shear = Mpde.Shear.make ~fast_freq:1e3 ~slow_freq:1e2 in
  let grid = Mpde.Grid.make ~shear ~n1:40 ~n2:30 in
  let system = Mpde.Assemble.of_dae dae in
  let t0 = Unix.gettimeofday () in
  let sol =
    Mpde.Solver.solve
      ~options:
        { Mpde.Solver.default_options with budget = Some (Budget.make ~max_newton:2 ()) }
      system grid
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "not converged" false sol.Mpde.Solver.stats.Mpde.Solver.converged;
  (match sol.Mpde.Solver.report.Report.outcome with
  | Report.Exhausted _ -> ()
  | _ -> Alcotest.failf "expected Exhausted, got %s" (Support.report_outcome sol.Mpde.Solver.report));
  Alcotest.(check bool) "terminated promptly" true (wall < 30.0)

let test_mpde_wall_deadline () =
  let dae = stiff_dae ~amplitude:5.0 ~freq:1e3 in
  let system, grid = mpde_fixture dae in
  let sol =
    Mpde.Solver.solve
      ~options:
        {
          Mpde.Solver.default_options with
          budget = Some (Budget.make ~wall_seconds:1e-9 ());
        }
      system grid
  in
  match sol.Mpde.Solver.report.Report.outcome with
  | Report.Exhausted (Budget.Wall_clock _) -> ()
  | _ ->
      Alcotest.failf "expected wall-clock exhaustion, got %s"
        (Support.report_outcome sol.Mpde.Solver.report)

(* ---------- Dcop on the ladder ---------- *)

let test_dcop_reports () =
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier
      ~drive:(Circuit.Waveform.sine ~amplitude:2.0 ~freq:1e6 ())
      ()
  in
  let r = Circuit.Dcop.solve mna in
  Alcotest.(check bool) "converged" true r.Circuit.Dcop.converged;
  Alcotest.(check bool) "report success" true ((r.Circuit.Dcop.resilience.Report.outcome = Report.Converged));
  Alcotest.(check bool) "stages listed" true
    (List.length r.Circuit.Dcop.resilience.Report.stages = 3)

let test_dcop_budget () =
  (* Cosine drive: the DC source is at full amplitude, so the operating
     point is nontrivial and Newton must actually iterate (a sine drive
     evaluates to zero at phase 0 and converges before any tick). *)
  let { Circuits.mna; _ } =
    Circuits.diode_rectifier
      ~drive:(Circuit.Waveform.cosine ~amplitude:2.0 ~freq:1e6 ())
      ()
  in
  let budget = Budget.make ~wall_seconds:1e-9 () in
  let r = Circuit.Dcop.solve ~budget mna in
  Alcotest.(check bool) "not converged" false r.Circuit.Dcop.converged;
  match r.Circuit.Dcop.resilience.Report.outcome with
  | Report.Exhausted _ -> ()
  | _ ->
      Alcotest.failf "expected Exhausted, got %s"
        (Support.report_outcome r.Circuit.Dcop.resilience)

let () =
  Alcotest.run "resilience"
    [
      ( "guard",
        [
          Alcotest.test_case "scan attribution" `Quick test_guard_scan;
        ] );
      ( "budget",
        [
          Alcotest.test_case "iteration caps" `Quick test_budget_iteration_caps;
          Alcotest.test_case "wall deadline tolerance" `Quick test_budget_wall_clock_tolerance;
          Alcotest.test_case "parent chain" `Quick test_budget_parent_chain;
        ] );
      ( "newton",
        [
          Alcotest.test_case "nan residual diverges fast" `Quick test_newton_diverged_on_nan;
          Alcotest.test_case "non-finite step rejected" `Quick test_newton_rejects_nonfinite_step;
          Alcotest.test_case "budget exhaustion" `Quick test_newton_budget_exhaustion;
        ] );
      ( "gmres",
        [
          Alcotest.test_case "happy breakdown" `Quick test_gmres_happy_breakdown;
          Alcotest.test_case "nan operator terminates" `Quick test_gmres_nan_operator_terminates;
          Alcotest.test_case "linear budget" `Quick test_gmres_budget;
        ] );
      ( "continuation",
        [
          Alcotest.test_case "total step cap" `Quick test_continuation_total_step_cap;
          Alcotest.test_case "budget" `Quick test_continuation_budget;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "order and skip" `Quick test_ladder_order_and_skip;
          Alcotest.test_case "budget stops climb" `Quick test_ladder_budget_stops_climb;
        ] );
      ( "report", [ Alcotest.test_case "json" `Quick test_report_json ] );
      ( "mpde",
        [
          Alcotest.test_case "ladder recovers stiff drive" `Quick test_mpde_ladder_recovers;
          Alcotest.test_case "nan poisoned terminates" `Quick test_mpde_nan_poisoned_terminates;
          Alcotest.test_case "budget on 40x30 grid" `Quick test_mpde_budget_exhaustion;
          Alcotest.test_case "wall deadline" `Quick test_mpde_wall_deadline;
        ] );
      ( "dcop",
        [
          Alcotest.test_case "structured report" `Quick test_dcop_reports;
          Alcotest.test_case "budget" `Quick test_dcop_budget;
        ] );
    ]
