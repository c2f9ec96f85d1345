type direction = Lower_better | Higher_better

type check = {
  metric : string;
  path : string list;
  direction : direction;
  tolerance : float;
  absolute : float;
}

type verdict = {
  check : check;
  baseline : float;
  current : float;
  change : float;
  ok : bool;
}

type result = {
  verdicts : verdict list;
  errors : string list;
  passed : bool;
}

let default_tolerance = 0.15

let default_checks ?(overrides = []) tolerance =
  let tol ?default metric =
    match List.assoc_opt metric overrides with
    | Some t -> t
    | None -> Option.value default ~default:tolerance
  in
  [
    {
      metric = "mixer.wall_seconds";
      path = [ "mixer"; "wall_seconds" ];
      direction = Lower_better;
      tolerance = tol "mixer.wall_seconds";
      absolute = 0.0;
    };
    {
      (* The four mixer counts are deterministic (the solve is bitwise
         reproducible), so they are watched exactly: one more Newton
         step, GMRES iteration, factor or sweep means the solver
         changed. *)
      metric = "mixer.newton_iterations";
      path = [ "mixer"; "newton_iterations" ];
      direction = Lower_better;
      tolerance = tol ~default:0.0 "mixer.newton_iterations";
      absolute = 0.0;
    };
    {
      metric = "mixer.gmres_iterations";
      path = [ "mixer"; "gmres_iterations" ];
      direction = Lower_better;
      tolerance = tol ~default:0.0 "mixer.gmres_iterations";
      absolute = 0.0;
    };
    {
      (* Diagonal-block factorizations per mixer solve, on a compiled
         schedule or dense — one exact build per Newton iterate,
         shared at the replicated seed; creeping up means more Newton
         steps or ladder work. *)
      metric = "mixer.block_factors";
      path = [ "mixer"; "block_factors" ];
      direction = Lower_better;
      tolerance = tol ~default:0.0 "mixer.block_factors";
      absolute = 0.0;
    };
    {
      (* Sweep-preconditioner applications per mixer solve; creeping
         up means more preconditioner sweeps, i.e. more GMRES work. *)
      metric = "mixer.precond_sweeps";
      path = [ "mixer"; "telemetry"; "counters"; "mpde.precond.sweeps" ];
      direction = Lower_better;
      tolerance = tol ~default:0.0 "mixer.precond_sweeps";
      absolute = 0.0;
    };
    {
      (* Minor-heap words per backward-Euler step of the d = 756.5
         shooting job: a function of the code path alone, so it is
         watched exactly like an iteration count. *)
      metric = "shooting.minor_words_per_step";
      path = [ "shooting"; "minor_words_per_step" ];
      direction = Lower_better;
      tolerance = tol "shooting.minor_words_per_step";
      absolute = 0.0;
    };
    {
      (* Minor-heap words per MPDE Newton iterate of the untraced 40x30
         balanced-mixer solve: deterministic like the shooting figure. *)
      metric = "mixer.minor_words_per_newton";
      path = [ "mixer"; "minor_words_per_newton" ];
      direction = Lower_better;
      tolerance = tol "mixer.minor_words_per_newton";
      absolute = 0.0;
    };
    {
      metric = "speedup.ratio";
      path = [ "speedup"; "ratio" ];
      direction = Higher_better;
      tolerance = tol "speedup.ratio";
      absolute = 0.0;
    };
    (* Kernel micro-benchmarks are isolated hot loops: noisier than
       end-to-end walls on shared runners, hence the wider default
       tolerance (still overridable by name). *)
    {
      metric = "kernel.spmv_mflops";
      path = [ "kernel"; "spmv_mflops" ];
      direction = Higher_better;
      tolerance = tol ~default:0.5 "kernel.spmv_mflops";
      absolute = 0.0;
    };
    {
      metric = "kernel.block_solve_cols_per_s";
      path = [ "kernel"; "block_solve_cols_per_s" ];
      direction = Higher_better;
      tolerance = tol ~default:0.5 "kernel.block_solve_cols_per_s";
      absolute = 0.0;
    };
    {
      metric = "kernel.sweep_points_per_s";
      path = [ "kernel"; "sweep_points_per_s" ];
      direction = Higher_better;
      tolerance = tol ~default:0.5 "kernel.sweep_points_per_s";
      absolute = 0.0;
    };
    {
      metric = "sweep.wall_1";
      path = [ "sweep"; "wall_1" ];
      direction = Lower_better;
      tolerance = tol "sweep.wall_1";
      absolute = 0.0;
    };
    {
      metric = "sweep.speedup_2";
      path = [ "sweep"; "speedup_2" ];
      direction = Higher_better;
      tolerance = tol "sweep.speedup_2";
      absolute = 0.0;
    };
    {
      metric = "sweep.speedup_4";
      path = [ "sweep"; "speedup_4" ];
      direction = Higher_better;
      tolerance = tol "sweep.speedup_4";
      absolute = 0.0;
    };
    (* Utilization and GC pauses live near 0 and 1 respectively, where
       relative drift is meaningless noise (a p99 pause moving from
       0.2ms to 0.5ms is a 150% "regression" nobody cares about); the
       [absolute] slack passes any change within a fixed band, so these
       only trip on real, sustained shifts. *)
    {
      metric = "sweep.domain_utilization_2";
      path = [ "sweep"; "domain_utilization_2" ];
      direction = Higher_better;
      tolerance = tol "sweep.domain_utilization_2";
      absolute = 0.2;
    };
    {
      metric = "sweep.domain_utilization_4";
      path = [ "sweep"; "domain_utilization_4" ];
      direction = Higher_better;
      tolerance = tol "sweep.domain_utilization_4";
      absolute = 0.2;
    };
    {
      metric = "gc.major_pause_p99";
      path = [ "gc"; "major_pause_p99" ];
      direction = Lower_better;
      tolerance = tol "gc.major_pause_p99";
      absolute = 0.05;
    };
  ]

let lookup_num doc path =
  match Telemetry.Json.path path doc with
  | Some j -> Telemetry.Json.num j
  | None -> None

let evaluate ?checks ~baseline ~current () =
  let checks =
    match checks with Some c -> c | None -> default_checks default_tolerance
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match Telemetry.Json.path [ "mixer"; "converged" ] current with
  | Some (Telemetry.Json.Bool true) -> ()
  | Some (Telemetry.Json.Bool false) ->
      err "current benchmark did not converge (mixer.converged = false)"
  | _ -> err "current benchmark is missing mixer.converged");
  (* Absolute floor for the parallel sweep, independent of whatever the
     baseline recorded: on a multi-core runner extra domains must beat
     serial outright (both the 2- and 4-domain configurations — a
     4-domain slowdown with a healthy 2-domain one means contention,
     not lack of cores). A single-core runner skips the floor (there is
     no parallelism to win) but still reports the relative checks
     below. *)
  (match lookup_num current [ "sweep"; "cores" ] with
  | Some cores when cores >= 2.0 ->
      List.iter
        (fun name ->
          match lookup_num current [ "sweep"; name ] with
          | Some sp when sp < 1.0 ->
              err
                "parallel sweep slower than serial: sweep.%s = %.2f < 1.0 on \
                 a %.0f-core runner"
                name sp cores
          | Some _ -> ()
          | None -> err "current benchmark is missing sweep.%s" name)
        [ "speedup_2"; "speedup_4" ]
  | Some _ -> ()
  | None -> err "current benchmark is missing sweep.cores");
  (* Clean-path resilience floor: the bench sweeps with retry armed, so
     a nonzero retry or degraded-job count means the runtime tripped its
     own fault handling on healthy inputs — a hard failure regardless of
     what the baseline recorded. *)
  List.iter
    (fun name ->
      match lookup_num current [ "sweep"; name ] with
      | Some v when v > 0.0 ->
          err "clean sweep fired the retry path: sweep.%s = %.0f (expected 0)"
            name v
      | Some _ -> ()
      | None -> err "current benchmark is missing sweep.%s" name)
    [ "retries"; "degraded_jobs" ];
  let verdicts =
    List.filter_map
      (fun check ->
        match
          (lookup_num baseline check.path, lookup_num current check.path)
        with
        | None, _ ->
            err "baseline is missing metric %s" check.metric;
            None
        | _, None ->
            err "current benchmark is missing metric %s" check.metric;
            None
        | Some b, Some c ->
            let denom = Float.max (Float.abs b) 1e-30 in
            let change = (c -. b) /. denom in
            let rel_ok =
              match check.direction with
              | Lower_better -> change <= check.tolerance
              | Higher_better -> change >= -.check.tolerance
            in
            (* Absolute slack: a drift inside a fixed band passes even
               when the relative change is huge — for metrics whose
               baseline sits near zero. *)
            let abs_ok =
              check.absolute > 0.0 && Float.abs (c -. b) <= check.absolute
            in
            Some { check; baseline = b; current = c; change; ok = rel_ok || abs_ok })
      checks
  in
  let passed = !errors = [] && List.for_all (fun v -> v.ok) verdicts in
  { verdicts; errors = List.rev !errors; passed }

let render result =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-26s %12s %12s %9s %7s  %s\n" "metric" "baseline"
       "current" "change" "tol" "status");
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%-26s %12.4g %12.4g %+8.1f%% %6.0f%%  %s\n"
           v.check.metric v.baseline v.current (100.0 *. v.change)
           (100.0 *. v.check.tolerance)
           (if v.ok then "ok"
            else
              match v.check.direction with
              | Lower_better -> "REGRESSION"
              | Higher_better -> "REGRESSION")))
    result.verdicts;
  List.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "error: %s\n" e))
    result.errors;
  Buffer.add_string buf
    (if result.passed then "gate: PASS\n" else "gate: FAIL\n");
  Buffer.contents buf
