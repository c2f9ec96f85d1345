type kind = Shooting | Multiple_shooting | Hb | Periodic_fd | Mpde

let kind_name = function
  | Shooting -> "shooting"
  | Multiple_shooting -> "multiple-shooting"
  | Hb -> "hb"
  | Periodic_fd -> "periodic-fd"
  | Mpde -> "mpde"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "shooting" -> Ok Shooting
  | "multiple-shooting" | "msh" -> Ok Multiple_shooting
  | "hb" | "harmonic-balance" -> Ok Hb
  | "periodic-fd" | "pfd" -> Ok Periodic_fd
  | "mpde" -> Ok Mpde
  | other ->
      Error
        (Printf.sprintf
           "unknown engine %S (expected shooting, multiple-shooting, hb, \
            periodic-fd or mpde)"
           other)

module Result = struct
  type waveform = { times : float array; values : float array }

  type t = {
    kind : kind;
    label : string;
    converged : bool;
    newton_iterations : int;
    residual_norm : float;
    wall_seconds : float;
    waveform : waveform;
    metrics : (string * float) list;
    report : Resilience.Report.t;
    health : Diagnostics.Health.t;
    telemetry : Telemetry.Summary.t option;
    mpde_solution : Mpde.Solver.solution option;
  }
end

type t = { kind : kind; options : Options.t }

let make ?(options = Options.default) kind = { kind; options }
let options e = e.options

(* One retained MPDE solver workspace per domain: sweep pools run many
   same-shaped jobs per domain, and the workspace's multi-megabyte
   numeric buffers (dense block staging, Krylov basis, operator
   buffers) dominate each job's allocation profile. The solver rebinds
   or rejects the retained workspace per job, so reuse never changes
   results. *)
let mpde_workspace_slot :
    Mpde.Solver.workspace option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let reset_workspace_slot () = Domain.DLS.get mpde_workspace_slot := None

let output_values mna (p : Problem.t) states =
  match p.Problem.output_b with
  | None -> Array.map (fun x -> Circuit.Mna.voltage mna x p.Problem.output) states
  | Some b ->
      Array.map
        (fun x -> Circuit.Mna.differential_voltage mna x p.Problem.output b)
        states

(* Integrator traces cover [0, T] inclusive, so the last sample
   duplicates the first; drop it before harmonic analysis, which
   assumes exactly one period of samples. *)
let one_period ~period times values =
  let n = Array.length values in
  if
    n >= 2
    && Float.abs (times.(n - 1) -. times.(0) -. period) <= 1e-6 *. period
  then Array.sub values 0 (n - 1)
  else values

let finite_or_zero x = if Float.is_finite x then x else 0.0

(* One spectrum per result: the fundamental and the THD of a periodic
   waveform both read a single real_harmonics array. *)
let harmonic_metrics ~h1_name samples =
  let h = Numeric.Fft.real_harmonics samples in
  [
    (h1_name, if Array.length h > 1 then fst h.(1) else 0.0);
    ( "thd",
      finite_or_zero (Numeric.Fft.thd ~peak:(Linalg.Vec.norm_inf samples) h) );
  ]

let periodic_metrics samples =
  if Array.length samples < 4 then []
  else harmonic_metrics ~h1_name:"h1_amplitude" samples

(* The run itself, under the [engine.run] span; [run] attaches the
   telemetry summary once the span has closed, so the capture's own
   cost is not booked as engine time. [tele_mark] receives the event
   log position at the start of the span: the summary covers the
   span's children, as it always has. *)
let run_in_span ~tele_mark (problem : Problem.t) (engine : t) : Result.t =
  let o = engine.options in
  Telemetry.span "engine.run" @@ fun () ->
  let wall0 = Telemetry.Clock.wall () in
  (* No allocation attribution in deterministic-replay mode: GC deltas
     are not replayable, and recording them would make fake-clock
     traces differ run to run. *)
  let alloc0 =
    if Telemetry.enabled () && not (Telemetry.Clock.overridden ()) then
      Some (Gc.quick_stat ())
    else None
  in
  tele_mark := Telemetry.mark ();
  let { Circuits.mna; _ } = problem.Problem.build () in
  let dae = Circuit.Mna.dae mna in
  let period = Problem.engine_period problem in
  (* Solved at most once, and only by a backend that reads it: an MPDE
     solve handed a surface skips the DC point. The seed is solved
     outside the job's budget, as Mpde.Solver.solve_mna's own DC
     fallback is: the budget bounds the steady-state solve, and a DC
     seed that used it up would leave the job too few Newton steps. *)
  let x0 =
    lazy
      (if o.Options.warm_start then
         (* A failed DC solve is not fatal — the engines fall back to the
            zero seed exactly as they would without warm start. *)
         try Some (Circuit.Dcop.solve_exn mna) with _ -> None
       else None)
  in
  let finalize ~converged ~newton_iterations ~residual_norm ~times ~values
      ~metrics ~report ~mpde_solution =
    (* Allocation attribution for the whole run (build, DC seed,
       solve), recorded before the snapshot so the gauges appear in
       this job's own summary. *)
    (match alloc0 with
    | Some s0 ->
        let s1 = Gc.quick_stat () in
        Telemetry.gauge "alloc.job.minor_words"
          (s1.Gc.minor_words -. s0.Gc.minor_words);
        Telemetry.gauge "alloc.job.major_words"
          (s1.Gc.major_words -. s0.Gc.major_words);
        Telemetry.gauge "alloc.job.promoted_words"
          (s1.Gc.promoted_words -. s0.Gc.promoted_words)
    | None -> ());
    {
      Result.kind = engine.kind;
      label = problem.Problem.label;
      converged;
      newton_iterations;
      residual_norm;
      wall_seconds = Telemetry.Clock.wall () -. wall0;
      waveform = { Result.times; values };
      metrics;
      report;
      health = Diagnostics.Health.of_report report;
      telemetry = None;
      mpde_solution;
    }
  in
  (* The single-time backends share one solution type: the report
     is stamped with the solve's wall time before the output waveform
     and metrics are extracted. *)
  let finalize_single_time (r : Steady.Solution.t) =
    let report =
      Steady.Solution.to_report ~stage:(kind_name engine.kind)
        ~wall_seconds:(Telemetry.Clock.wall () -. wall0)
        r
    in
    let times = r.trace.Numeric.Integrator.times in
    let values, metrics =
      Telemetry.span "engine.metrics" @@ fun () ->
      let values = output_values mna problem r.trace.Numeric.Integrator.states in
      (values, periodic_metrics (one_period ~period times values))
    in
    finalize ~converged:r.converged ~newton_iterations:r.newton_iterations
      ~residual_norm:r.residual_norm ~times ~values ~metrics ~report
      ~mpde_solution:None
  in
  match engine.kind with
  | Shooting ->
      finalize_single_time
        (Steady.Shooting.solve ~max_newton:o.Options.max_newton
           ~tol:o.Options.tol ~steps_per_period:o.Options.steps_per_period
           ?budget:o.Options.budget ?x0:(Lazy.force x0) ~dae ~period ())
  | Multiple_shooting ->
      finalize_single_time
        (Steady.Multiple_shooting.solve ~max_newton:o.Options.max_newton
           ~tol:o.Options.tol ~steps_per_segment:o.Options.steps_per_segment
           ?budget:o.Options.budget ?x0:(Lazy.force x0) ~dae ~period
           ~segments:o.Options.segments ())
  | Hb ->
      finalize_single_time
        (Steady.Hb.solve ~max_newton:o.Options.max_newton ~tol:o.Options.tol
           ?budget:o.Options.budget ?x_init:(Lazy.force x0) ~dae ~period
           ~harmonics:o.Options.harmonics ())
  | Periodic_fd ->
      finalize_single_time
        (Steady.Periodic_fd.solve ~max_newton:o.Options.max_newton
           ~tol:o.Options.tol ?budget:o.Options.budget
           ?x_init:(Lazy.force x0) ~dae ~period ~points:o.Options.points ())
  | Mpde ->
      let shear =
        Mpde.Shear.make ~fast_freq:problem.Problem.f_fast
          ~slow_freq:problem.Problem.fd
      in
      (* The DC point goes in as the seed, so solve_mna does not solve
         it again; it still solves DC itself when there is none (DC
         failed, or warm start is off) or the surface does not fit. *)
      let seed =
        match o.Options.initial_surface with
        | Some _ as surface -> surface
        | None -> Lazy.force x0
      in
      let sol =
        Mpde.Solver.solve_mna ~options:(Options.to_mpde o) ?seed
          ~workspace_slot:(Domain.DLS.get mpde_workspace_slot) ~shear
          ~n1:o.Options.n1 ~n2:o.Options.n2 mna
      in
      let times, values, metrics =
        Telemetry.span "engine.metrics" @@ fun () ->
        let values_2d =
          match problem.Problem.output_b with
          | None -> Mpde.Extract.surface_of_node sol mna problem.Problem.output
          | Some b ->
              Mpde.Extract.differential_surface sol mna problem.Problem.output b
        in
        (* The Mean_t1 envelope is the t2 baseband the metrics read. *)
        let values = Mpde.Extract.envelope sol ~values:values_2d in
        ( Mpde.Extract.envelope_times sol,
          values,
          harmonic_metrics ~h1_name:"baseband_h1" values )
      in
      finalize ~converged:sol.Mpde.Solver.stats.Mpde.Solver.converged
        ~newton_iterations:
          sol.Mpde.Solver.stats.Mpde.Solver.newton_iterations
        ~residual_norm:sol.Mpde.Solver.stats.Mpde.Solver.residual_norm ~times
        ~values ~metrics ~report:sol.Mpde.Solver.report
        ~mpde_solution:(Some sol)

let run problem engine =
  let tele_mark = ref 0 in
  let r = run_in_span ~tele_mark problem engine in
  {
    r with
    Result.telemetry =
      Option.map Telemetry.Summary.of_snapshot (Telemetry.snapshot ~since:!tele_mark ());
  }
