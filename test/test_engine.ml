(* Tests for the unified engine API and the parallel sweep executor:
   every backend solving the same problem through Engine.run, the
   options-to-backend mapping, sweep determinism (parallel outcome
   arrays identical to serial, waveforms bitwise), crash isolation
   (a raising build thunk errors its own job only), budget propagation
   from the sweep deadline into per-job budgets, per-domain telemetry
   isolation, run determinism for identical inputs, and the four
   single-time backends on every catalog circuit with their shared
   report shape and pinned iteration-cap and budget outcomes, and
   warm-started sweeps (MPDE jobs seeded from their group's anchor:
   bitwise across domain counts, across a resume, and cold when the
   seeded solve fails or takes no Newton step). *)

module W = Circuit.Waveform

let rc_problem ?(label = "rc") ?(f_fast = 1e6) ?(fd = 1e4) () =
  Engine.Problem.make ~label ~output:"out" ~f_fast ~fd (fun () ->
      Circuits.rc_lowpass
        ~drive:
          (W.sum
             (W.sine ~amplitude:1.0 ~freq:f_fast ())
             (W.sine ~amplitude:1.0 ~freq:(f_fast +. fd) ()))
        ())

(* Small grids/discretizations keep the full five-engine matrix fast. *)
let small_options =
  {
    Engine.Options.default with
    steps_per_period = 64;
    segments = 4;
    steps_per_segment = 16;
    harmonics = 6;
    points = 33;
    n1 = 16;
    n2 = 12;
  }

(* ---------- Engine.run over every backend ---------- *)

let all_kinds = Engine.[ Shooting; Multiple_shooting; Hb; Periodic_fd; Mpde ]

let test_all_kinds_converge () =
  let problem = rc_problem () in
  List.iter
    (fun kind ->
      let name = Engine.kind_name kind in
      let r = Engine.run problem (Engine.make ~options:small_options kind) in
      Alcotest.(check bool) (name ^ " converged") true r.Engine.Result.converged;
      Alcotest.(check bool)
        (name ^ " report success") true
        (r.Engine.Result.report.Resilience.Report.outcome = Resilience.Report.Converged);
      Alcotest.(check string) (name ^ " label") "rc" r.Engine.Result.label;
      Alcotest.(check bool)
        (name ^ " has waveform") true
        (Array.length r.Engine.Result.waveform.Engine.Result.values > 0);
      Alcotest.(check bool)
        (name ^ " waveform finite") true
        (Array.for_all Float.is_finite
           r.Engine.Result.waveform.Engine.Result.values);
      Alcotest.(check bool)
        (name ^ " times/values aligned") true
        (Array.length r.Engine.Result.waveform.Engine.Result.times
        = Array.length r.Engine.Result.waveform.Engine.Result.values);
      Alcotest.(check bool)
        (name ^ " has metrics") true
        (r.Engine.Result.metrics <> []);
      (* The linear RC driven at ~1 V must show a visible fundamental. *)
      let h1 =
        List.fold_left
          (fun acc (k, v) ->
            if k = "h1_amplitude" || k = "baseband_h1" then Some v else acc)
          None r.Engine.Result.metrics
      in
      (* Single-time engines see the ~1 V fundamental; MPDE reports the
         baseband difference tone, which is essentially zero on a
         linear RC (no mixing) — so only bound it above. *)
      (match h1 with
      | Some v ->
          Alcotest.(check bool)
            (name ^ " h1 sane") true
            (Float.is_finite v && v >= 0.0 && v < 10.0);
          if kind <> Engine.Mpde then
            Alcotest.(check bool) (name ^ " h1 visible") true (v > 0.1)
      | None -> Alcotest.failf "%s: no fundamental metric" name);
      match kind with
      | Engine.Mpde ->
          Alcotest.(check bool)
            "mpde attaches solution" true
            (r.Engine.Result.mpde_solution <> None)
      | _ ->
          Alcotest.(check bool)
            (name ^ " no mpde solution") true
            (r.Engine.Result.mpde_solution = None))
    all_kinds

let test_kind_names_round_trip () =
  List.iter
    (fun kind ->
      match Engine.kind_of_name (Engine.kind_name kind) with
      | Ok k -> Alcotest.(check bool) "round trip" true (k = kind)
      | Error e -> Alcotest.fail e)
    all_kinds;
  (match Engine.kind_of_name "msh" with
  | Ok Engine.Multiple_shooting -> ()
  | _ -> Alcotest.fail "msh alias");
  (match Engine.kind_of_name "PFD" with
  | Ok Engine.Periodic_fd -> ()
  | _ -> Alcotest.fail "pfd alias case-insensitive");
  match Engine.kind_of_name "spectral" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown name must error"

let test_period_choice () =
  let fast = rc_problem () in
  let diff =
    { fast with Engine.Problem.period = Engine.Problem.Difference_tone }
  in
  Alcotest.(check (float 1e-12)) "fast period" 1e-6
    (Engine.Problem.engine_period fast);
  Alcotest.(check (float 1e-10)) "difference period" 1e-4
    (Engine.Problem.engine_period diff)

let test_run_respects_budget () =
  (* A pre-exhausted wall budget must surface as a clean Exhausted
     outcome, not a hang or an exception. *)
  let budget = Resilience.Budget.make ~wall_seconds:0.0 () in
  let options =
    { small_options with Engine.Options.budget = Some budget }
  in
  let r = Engine.run (rc_problem ()) (Engine.make ~options Engine.Mpde) in
  Alcotest.(check bool) "not converged" false r.Engine.Result.converged;
  match r.Engine.Result.report.Resilience.Report.outcome with
  | Resilience.Report.Exhausted _ -> ()
  | _ ->
      Alcotest.failf "expected exhausted, got %s"
        (Support.report_outcome r.Engine.Result.report)

let catalog_problem (c : Serve.Catalog.t) =
  Serve.Catalog.problem_of c ~f_fast:c.Serve.Catalog.default_fast
    ~fd:c.Serve.Catalog.default_fd

(* The DC seed is solved outside the job's budget: on the balanced
   mixer DC takes 6 Newton steps, and a budget of 8 must still leave the
   MPDE solve its full unbudgeted count. A budget too small for the
   solve exhausts it, and no ladder stage produced the value. *)
let test_dc_seed_outside_budget () =
  let problem =
    catalog_problem (Result.get_ok (Serve.Catalog.find "balanced-mixer"))
  in
  let run budget =
    let options =
      {
        Engine.Options.default with
        n1 = 16;
        n2 = 12;
        budget = Option.map (fun n -> Resilience.Budget.make ~max_newton:n ()) budget;
      }
    in
    Engine.run problem (Engine.make ~options Engine.Mpde)
  in
  let free = run None in
  Alcotest.(check bool) "unbudgeted converged" true free.Engine.Result.converged;
  let capped = run (Some 8) in
  Alcotest.(check bool) "budget 8 converged" true capped.Engine.Result.converged;
  Alcotest.(check int) "budget 8 newton" free.Engine.Result.newton_iterations
    capped.Engine.Result.newton_iterations;
  let starved = run (Some 2) in
  Alcotest.(check bool) "budget 2 converged" false starved.Engine.Result.converged;
  Alcotest.(check string) "budget 2 strategy" "none"
    starved.Engine.Result.health.Diagnostics.Health.strategy

(* ---------- Sweep ---------- *)

let fd_values = [| 1e3; 2e3; 5e3; 1e4; 2e4; 5e4; 1e5; 2e5 |]

let sweep_jobs ?(kind = Engine.Mpde) () =
  Array.map
    (fun fd ->
      Engine.Sweep.job ~options:small_options ~kind
        (rc_problem ~label:(Printf.sprintf "fd=%g" fd) ~fd ()))
    fd_values

let result_exn (o : Engine.Sweep.outcome) =
  match o.Engine.Sweep.result with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "job %d errored: %s" o.Engine.Sweep.index
        (Engine.Sweep.failure_to_string e)

let test_sweep_parallel_matches_serial () =
  let serial = Engine.Sweep.run ~domains:1 (sweep_jobs ()) in
  let parallel = Engine.Sweep.run ~domains:2 (sweep_jobs ()) in
  Alcotest.(check int) "same length" (Array.length serial)
    (Array.length parallel);
  Array.iteri
    (fun i s ->
      let p = parallel.(i) in
      Alcotest.(check int) "index order" i p.Engine.Sweep.index;
      let rs = result_exn s and rp = result_exn p in
      Alcotest.(check string) "label" rs.Engine.Result.label
        rp.Engine.Result.label;
      Alcotest.(check bool) "converged" rs.Engine.Result.converged
        rp.Engine.Result.converged;
      (* Bitwise, not approximate: identical code on identical inputs,
         scheduling must not leak into the numerics. *)
      Alcotest.(check bool)
        "waveform bitwise equal" true
        (rs.Engine.Result.waveform = rp.Engine.Result.waveform);
      Alcotest.(check bool)
        "residual bitwise equal" true
        (Int64.bits_of_float rs.Engine.Result.residual_norm
        = Int64.bits_of_float rp.Engine.Result.residual_norm))
    serial

let test_sweep_isolates_crashing_job () =
  let jobs = sweep_jobs () in
  let poisoned =
    Engine.Sweep.job ~label:"poison" ~options:small_options ~kind:Engine.Mpde
      (Engine.Problem.make ~label:"poison" ~f_fast:1e6 ~fd:1e4 (fun () ->
           failwith "deliberately broken build thunk"))
  in
  let all = Array.concat [ Array.sub jobs 0 2; [| poisoned |]; Array.sub jobs 2 2 ] in
  let outcomes = Engine.Sweep.run ~domains:2 all in
  Alcotest.(check int) "all jobs reported" 5 (Array.length outcomes);
  (match outcomes.(2).Engine.Sweep.result with
  | Error f ->
      let contains ~sub s =
        let n = String.length sub and m = String.length s in
        let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        "error message propagated" true
        (contains ~sub:"deliberately broken" f.Engine.Sweep.message)
  | Ok _ -> Alcotest.fail "poisoned job must error");
  Array.iteri
    (fun i o ->
      if i <> 2 then
        Alcotest.(check bool)
          (Printf.sprintf "sibling %d unharmed" i)
          true
          (result_exn o).Engine.Result.converged)
    outcomes

let test_sweep_deadline_propagates () =
  (* Zero sweep budget: every job derives an already-exhausted wall
     budget and must come back Exhausted, never converged, and never
     raise out of the pool. *)
  let outcomes =
    Engine.Sweep.run ~domains:2 ~wall_seconds:0.0 (sweep_jobs ())
  in
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      let r = result_exn o in
      Alcotest.(check bool) "not converged" false r.Engine.Result.converged;
      match r.Engine.Result.report.Resilience.Report.outcome with
      | Resilience.Report.Exhausted _ -> ()
      | _ ->
          Alcotest.failf "job %d: expected exhausted, got %s"
            o.Engine.Sweep.index
            (Support.report_outcome r.Engine.Result.report))
    outcomes

let test_sweep_max_newton_per_job () =
  (* One Newton iteration is not enough for the diode rectifier; the
     cap must bite per job and be reported as exhaustion. *)
  let problem =
    Engine.Problem.make ~label:"rectifier" ~output:"out" ~f_fast:1e6 ~fd:1e4
      (fun () ->
        Circuits.diode_rectifier
          ~drive:(W.sine ~amplitude:2.0 ~freq:1e6 ())
          ())
  in
  let jobs =
    [| Engine.Sweep.job ~options:small_options ~kind:Engine.Shooting problem |]
  in
  let outcomes = Engine.Sweep.run ~domains:1 ~max_newton_per_job:1 jobs in
  let r = result_exn outcomes.(0) in
  Alcotest.(check bool) "capped job not converged" false
    r.Engine.Result.converged

let test_pool_order_and_clamp () =
  let items = Array.init 37 (fun i -> i) in
  let doubled = Engine.Pool.map ~domains:8 (fun i -> 2 * i) items in
  Alcotest.(check (array int)) "order preserved"
    (Array.map (fun i -> 2 * i) items)
    doubled;
  (* Eight lanes run on no more OS domains than cores: count the items
     in flight at once (each holds its slot long enough for the lanes
     of other domains to overlap it), and check the static placement
     by lane. *)
  let live = Atomic.make 0 and peak = Atomic.make 0 in
  let lanes =
    Engine.Pool.map ~assign:`Static ~domains:8
      (fun _ ->
        let now = 1 + Atomic.fetch_and_add live 1 in
        let rec raise_peak () =
          let p = Atomic.get peak in
          if now > p && not (Atomic.compare_and_set peak p now) then
            raise_peak ()
        in
        raise_peak ();
        Unix.sleepf 0.002;
        Atomic.decr live;
        Engine.Pool.worker_index ())
      items
  in
  let cores = Domain.recommended_domain_count () in
  if Atomic.get peak > cores then
    Alcotest.failf "%d items in flight on %d cores" (Atomic.get peak) cores;
  Alcotest.(check (array int)) "item i on lane i mod 8"
    (Array.map (fun i -> i mod 8) items)
    lanes;
  let empty = Engine.Pool.map ~domains:4 (fun i -> i) [||] in
  Alcotest.(check int) "empty input" 0 (Array.length empty)

(* ---------- warm-started sweeps ---------- *)

let mixer_fixture =
  match Serve.Catalog.find "unbalanced-mixer" with
  | Ok f -> f
  | Error e -> failwith e

let mixer_fds = [| 1e4; 1.1e4; 1.2e4; 1.3e4; 1.5e4 |]

let mixer_label fd = Printf.sprintf "mixer fd=%g" fd

let mixer_options = { Engine.Options.default with n1 = 16; n2 = 12 }

let mixer_problem fd =
  Serve.Catalog.problem_of ~label:(mixer_label fd) mixer_fixture
    ~f_fast:mixer_fixture.Serve.Catalog.default_fast ~fd

let mixer_jobs () =
  Array.map
    (fun fd ->
      Engine.Sweep.job ~label:(mixer_label fd) ~options:mixer_options
        ~kind:Engine.Mpde (mixer_problem fd))
    mixer_fds

let cold_mixer fd =
  Engine.run (mixer_problem fd) (Engine.make ~options:mixer_options Engine.Mpde)

let waveform_bits (r : Engine.Result.t) =
  Array.map Int64.bits_of_float r.Engine.Result.waveform.Engine.Result.values

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.(i)))) a;
  !worst

(* Cold multi-step MPDE jobs, each the anchor of its own group, so
   lanes solve them concurrently. All three take the nested start. *)
let cold_jobs () =
  let bridge ~a2 =
    Engine.Problem.make ~label:(Printf.sprintf "bridge a2=%g" a2) ~output:"p" ~output_b:"n"
      ~f_fast:50e3 ~fd:500.0 (fun () ->
        let drive =
          W.sum (W.sine ~amplitude:10.0 ~freq:50e3 ()) (W.sine ~amplitude:a2 ~freq:50.5e3 ())
        in
        Circuits.bridge_rectifier ~load_r:1e3 ~load_c:2e-7 ~drive ())
  in
  let detector = Result.get_ok (Serve.Catalog.find "detector") in
  let grid n1 n2 = { Engine.Options.default with n1; n2 } in
  [|
    Engine.Sweep.job ~options:(grid 24 12) ~kind:Engine.Mpde (bridge ~a2:2.0);
    Engine.Sweep.job ~options:(grid 16 8) ~kind:Engine.Mpde (bridge ~a2:2.5);
    Engine.Sweep.job ~kind:Engine.Mpde
      (Serve.Catalog.problem_of detector ~f_fast:detector.Serve.Catalog.default_fast
         ~fd:detector.Serve.Catalog.default_fd);
  |]

(* The GMRES forcing term lives in each Newton solve, and a job's
   numbers do not depend on its neighbour. *)
let test_cold_sweep_forcing_per_solve () =
  let serial = Engine.Sweep.run ~domains:1 (cold_jobs ()) in
  let parallel = Engine.Sweep.run ~domains:2 (cold_jobs ()) in
  Array.iteri
    (fun i (o : Engine.Sweep.outcome) ->
      let r = result_exn o and r1 = result_exn serial.(i) in
      Alcotest.(check (option int)) (Printf.sprintf "job %d cold" i) None o.Engine.Sweep.anchor;
      Alcotest.(check bool)
        (Printf.sprintf "job %d multi-step" i)
        true
        (r1.Engine.Result.newton_iterations > 1);
      Alcotest.(check int)
        (Printf.sprintf "job %d newton" i)
        r1.Engine.Result.newton_iterations r.Engine.Result.newton_iterations;
      Alcotest.(check bool)
        (Printf.sprintf "job %d bitwise on 2 domains" i)
        true
        (waveform_bits r = waveform_bits r1))
    parallel

(* A nested start's coarse levels run on workspaces of their own, so
   its answer does not depend on which domain, holding which retained
   workspace, solved it. *)
let test_nested_sweep_bitwise () =
  let start (r : Engine.Result.t) =
    Mpde.Solver.start_name
      (Option.get r.Engine.Result.mpde_solution).Mpde.Solver.stats.Mpde.Solver.start
  in
  let serial = Engine.Sweep.run ~domains:1 (cold_jobs ()) in
  List.iter
    (fun d ->
      Array.iteri
        (fun i (o : Engine.Sweep.outcome) ->
          let r = result_exn o and r1 = result_exn serial.(i) in
          Alcotest.(check string) (Printf.sprintf "job %d nested" i) "nested" (start r);
          Alcotest.(check bool)
            (Printf.sprintf "job %d bitwise on %d domains" i d)
            true
            (waveform_bits r = waveform_bits r1))
        (Engine.Sweep.run ~domains:d (cold_jobs ())))
    [ 1; 2; 4 ]

let test_warm_sweep_seeds_dependents () =
  let runs =
    List.map (fun d -> (d, Engine.Sweep.run ~domains:d (mixer_jobs ()))) [ 1; 2; 4 ]
  in
  let reference = List.assoc 1 runs in
  List.iter
    (fun (d, outcomes) ->
      Array.iteri
        (fun i (o : Engine.Sweep.outcome) ->
          let r = result_exn o and r1 = result_exn reference.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "job %d on %d domains bitwise" i d)
            true
            (waveform_bits r = waveform_bits r1);
          Alcotest.(check (option int))
            (Printf.sprintf "job %d on %d domains anchor" i d)
            reference.(i).Engine.Sweep.anchor o.Engine.Sweep.anchor)
        outcomes)
    runs;
  Array.iteri
    (fun i (o : Engine.Sweep.outcome) ->
      let r = result_exn o in
      let cold = cold_mixer mixer_fds.(i) in
      Alcotest.(check bool) "converged" true r.Engine.Result.converged;
      if i = 0 then begin
        (* The anchor runs cold: it is the cold solve, bit for bit. *)
        Alcotest.(check (option int)) "anchor unseeded" None o.Engine.Sweep.anchor;
        Alcotest.(check bool) "anchor = cold" true (waveform_bits r = waveform_bits cold)
      end
      else begin
        Alcotest.(check (option int)) "seeded from job 0" (Some 0) o.Engine.Sweep.anchor;
        if r.Engine.Result.newton_iterations >= cold.Engine.Result.newton_iterations then
          Alcotest.failf "job %d: %d Newton iterations seeded, %d cold" i
            r.Engine.Result.newton_iterations cold.Engine.Result.newton_iterations;
        let diff =
          max_abs_diff r.Engine.Result.waveform.Engine.Result.values
            cold.Engine.Result.waveform.Engine.Result.values
        in
        if not (diff <= mixer_options.Engine.Options.tol) then
          Alcotest.failf "job %d: seeded waveform %.3e V from the cold one" i diff
      end)
    reference

let test_warm_sweep_resume () =
  let full = Engine.Sweep.run ~domains:2 (mixer_jobs ()) in
  (* The anchor's record is already in the checkpoint: it is re-solved
     silently, and only the pending jobs are reported and returned. *)
  let reported = ref [] in
  let resumed =
    Engine.Sweep.run ~domains:2
      ~completed:(fun i -> i = 0)
      ~on_outcome:(fun o -> reported := o.Engine.Sweep.index :: !reported)
      (mixer_jobs ())
  in
  Alcotest.(check (list int)) "pending jobs returned in order" [ 1; 2; 3; 4 ]
    (Array.to_list (Array.map (fun o -> o.Engine.Sweep.index) resumed));
  Alcotest.(check (list int)) "pending jobs reported" [ 1; 2; 3; 4 ]
    (List.sort compare !reported);
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      let i = o.Engine.Sweep.index in
      Alcotest.(check (option int)) "still seeded from job 0" (Some 0)
        o.Engine.Sweep.anchor;
      Alcotest.(check bool)
        (Printf.sprintf "job %d bitwise as uninterrupted" i)
        true
        (waveform_bits (result_exn o) = waveform_bits (result_exn full.(i))))
    resumed

let test_warm_sweep_cold_fallback () =
  (* One crash on the first Newton iteration of job 1's first attempt
     sinks its seeded solve; the cold re-solve in the same attempt is
     past the one-shot trigger and converges. *)
  let plan = Resilience.Faultinject.parse_exn "crash@newton/fd=11000#1:1" in
  Resilience.Faultinject.install plan;
  let outcomes =
    Fun.protect ~finally:Resilience.Faultinject.uninstall (fun () ->
        Engine.Sweep.run ~domains:1 (mixer_jobs ()))
  in
  let o = outcomes.(1) in
  let r = result_exn o in
  Alcotest.(check bool) "converged" true r.Engine.Result.converged;
  Alcotest.(check int) "in one attempt" 1 o.Engine.Sweep.attempts;
  Alcotest.(check (option int)) "fell back cold" None o.Engine.Sweep.anchor;
  Alcotest.(check bool) "the cold answer" true
    (waveform_bits r = waveform_bits (cold_mixer mixer_fds.(1)));
  Alcotest.(check (option int)) "siblings still seeded" (Some 0)
    outcomes.(2).Engine.Sweep.anchor

let test_warm_sweep_zero_step_seed () =
  (* A repeat of the anchor's own point: its surface already meets the
     residual tolerance. The solver still takes one Newton step from
     it, so the seed is kept, and the answer lies as far inside the
     tolerance as the cold solve's. *)
  let jobs = mixer_jobs () in
  let repeat = { jobs.(0) with Engine.Sweep.label = "mixer repeat" } in
  let outcomes = Engine.Sweep.run ~domains:1 [| jobs.(0); repeat |] in
  let r = result_exn outcomes.(1) and cold = result_exn outcomes.(0) in
  Alcotest.(check (option int)) "seeded" (Some 0) outcomes.(1).Engine.Sweep.anchor;
  Alcotest.(check int) "one Newton step" 1 r.Engine.Result.newton_iterations;
  let diff =
    max_abs_diff r.Engine.Result.waveform.Engine.Result.values
      cold.Engine.Result.waveform.Engine.Result.values
  in
  if not (diff <= mixer_options.Engine.Options.tol) then
    Alcotest.failf "seeded waveform %.3e V from the cold one" diff

let test_warm_digest () =
  (* A sweep's points over one circuit share a digest: tones are not
     part of it. *)
  let mixer fd = Engine.Problem.digest (mixer_problem fd) in
  Array.iter
    (fun fd ->
      Alcotest.(check string) "mixer digest tone-independent" (mixer 1e4) (mixer fd))
    mixer_fds;
  (* Element values are: the rectifier and the envelope detector are
     one topology with different load capacitors. *)
  let digests = List.map Serve.Catalog.digest Serve.Catalog.all in
  Alcotest.(check int) "one digest per catalog circuit"
    (List.length digests)
    (List.length (List.sort_uniq compare digests))

(* ---------- telemetry isolation across domains ---------- *)

let test_telemetry_domain_isolation () =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  Telemetry.span "main-domain-span" (fun () -> ());
  let worker_saw_recorder =
    Domain.join
      (Domain.spawn (fun () ->
           (* The recorder is domain-local: a fresh domain starts with
              none, and enabling here must not touch the main one. *)
           let before = Telemetry.enabled () in
           Telemetry.enable ();
           Telemetry.span "worker-span" (fun () -> ());
           Telemetry.disable ();
           before))
  in
  Alcotest.(check bool) "worker starts without recorder" false
    worker_saw_recorder;
  Alcotest.(check bool) "main recorder survives worker" true
    (Telemetry.enabled ());
  match Telemetry.snapshot () with
  | None -> Alcotest.fail "main snapshot missing"
  | Some snap ->
      let names =
        Array.to_list snap.Telemetry.events
        |> List.filter_map (function
             | Telemetry.Span_begin { name; _ } -> Some name
             | _ -> None)
      in
      Alcotest.(check bool) "main span recorded" true
        (List.mem "main-domain-span" names);
      Alcotest.(check bool) "worker span not leaked into main" false
        (List.mem "worker-span" names)

let test_sweep_per_job_telemetry () =
  let outcomes =
    Engine.Sweep.run ~domains:2 ~per_job_telemetry:true
      (Array.sub (sweep_jobs ()) 0 4)
  in
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      let r = result_exn o in
      match r.Engine.Result.telemetry with
      | Some summary ->
          Alcotest.(check bool)
            "per-job summary has spans" true
            (summary.Telemetry.Summary.roots <> [])
      | None -> Alcotest.failf "job %d: no telemetry" o.Engine.Sweep.index)
    outcomes

(* ---------- the single-time backends on every catalog circuit ---------- *)

let single_time_kinds =
  [ Engine.Shooting; Engine.Multiple_shooting; Engine.Hb; Engine.Periodic_fd ]

(* The report shape every single-time backend shares: strategy
   "newton", one stage named after the backend holding the outer Newton
   iterations, and no linear iterations. *)
let check_single_time_report what kind (r : Engine.Result.t) =
  let report = r.Engine.Result.report in
  Alcotest.(check (option string))
    (what ^ " strategy") (Some "newton") report.Resilience.Report.strategy;
  (match report.Resilience.Report.stages with
  | [ stage ] ->
      Alcotest.(check string)
        (what ^ " stage name") (Engine.kind_name kind) stage.Resilience.Report.name;
      Alcotest.(check int)
        (what ^ " stage iterations") r.Engine.Result.newton_iterations
        stage.Resilience.Report.iterations
  | stages -> Alcotest.failf "%s: %d stages, expected 1" what (List.length stages));
  Alcotest.(check int)
    (what ^ " linear iterations") 0 report.Resilience.Report.linear_iterations

let test_single_time_table () =
  List.iter
    (fun (c : Serve.Catalog.t) ->
      let problem = catalog_problem c in
      List.iter
        (fun kind ->
          let what = c.Serve.Catalog.name ^ " x " ^ Engine.kind_name kind in
          let r = Engine.run problem (Engine.make kind) in
          Alcotest.(check bool) (what ^ " converged") true r.Engine.Result.converged;
          check_single_time_report what kind r)
        single_time_kinds)
    Serve.Catalog.all

(* Multiple shooting's windows and shooting at the same total step
   count integrate the same backward-Euler discretization of the
   period, so the two steady states differ only where each outer Newton
   stops (defects below tol = 1e-8). *)
let test_multiple_shooting_matches_shooting () =
  let o = Engine.Options.default in
  let steps = o.Engine.Options.segments * o.Engine.Options.steps_per_segment in
  List.iter
    (fun (c : Serve.Catalog.t) ->
      let problem = catalog_problem c in
      let values kind options =
        (Engine.run problem (Engine.make ~options kind)).Engine.Result.waveform
          .Engine.Result.values
      in
      let sh = values Engine.Shooting { o with steps_per_period = steps } in
      let msh = values Engine.Multiple_shooting o in
      Alcotest.(check int) (c.Serve.Catalog.name ^ " samples") (Array.length sh)
        (Array.length msh);
      let worst = ref 0.0 in
      Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. msh.(i)))) sh;
      if !worst > 1e-7 then
        Alcotest.failf "%s: multiple shooting and shooting differ by %g V"
          c.Serve.Catalog.name !worst)
    Serve.Catalog.all

let outcome_of (r : Engine.Result.t) =
  Support.report_outcome r.Engine.Result.report

(* The exits of the shared outer loops, pinned on the rectifier. The
   shooting backends thread the budget into every inner time-step
   Newton solve, so three iterations run out inside the first period
   integration; the collocation backends tick it once per outer
   iteration. *)
let test_single_time_limits () =
  let problem = catalog_problem (Result.get_ok (Serve.Catalog.find "rectifier")) in
  let run options kind = Engine.run problem (Engine.make ~options kind) in
  List.iter
    (fun (kind, cap_outcome, budget_iterations) ->
      let name = Engine.kind_name kind in
      let cap = run { Engine.Options.default with max_newton = 1 } kind in
      Alcotest.(check bool) (name ^ " cap converged") false cap.Engine.Result.converged;
      Alcotest.(check string) (name ^ " cap outcome") cap_outcome (outcome_of cap);
      Alcotest.(check int) (name ^ " cap iterations") 1 cap.Engine.Result.newton_iterations;
      check_single_time_report (name ^ " cap") kind cap;
      let budget = Resilience.Budget.make ~max_newton:3 () in
      let exhausted = run { Engine.Options.default with budget = Some budget } kind in
      Alcotest.(check string)
        (name ^ " budget outcome") "exhausted: newton-iterations(limit=3 used=4)"
        (outcome_of exhausted);
      Alcotest.(check int)
        (name ^ " budget iterations") budget_iterations
        exhausted.Engine.Result.newton_iterations;
      check_single_time_report (name ^ " budget") kind exhausted)
    [
      (Engine.Shooting, "failed: max shooting iterations", 0);
      (Engine.Multiple_shooting, "failed: max shooting iterations", 0);
      (Engine.Hb, "failed: max-iterations", 3);
      (Engine.Periodic_fd, "failed: max-iterations", 3);
    ]

(* ---------- run determinism ---------- *)

(* Replaced the deprecated run_<method> wrapper test when the wrappers
   were removed: the property worth keeping is that Engine.run is
   deterministic for identical inputs — the invariant the serve-layer
   result cache relies on. *)
let test_run_deterministic () =
  let problem = rc_problem () in
  let r =
    Engine.run problem (Engine.make ~options:small_options Engine.Shooting)
  in
  Alcotest.(check bool) "converged" true r.Engine.Result.converged;
  Alcotest.(check bool) "kind" true (r.Engine.Result.kind = Engine.Shooting);
  let again =
    Engine.run problem (Engine.make ~options:small_options Engine.Shooting)
  in
  Alcotest.(check bool) "same waveform" true
    (r.Engine.Result.waveform = again.Engine.Result.waveform)

let () =
  Alcotest.run "engine"
    [
      ( "run",
        [
          Alcotest.test_case "all kinds converge on rc" `Slow
            test_all_kinds_converge;
          Alcotest.test_case "kind names round trip" `Quick
            test_kind_names_round_trip;
          Alcotest.test_case "period choice" `Quick test_period_choice;
          Alcotest.test_case "pre-exhausted budget" `Quick
            test_run_respects_budget;
          Alcotest.test_case "DC seed outside the budget" `Quick
            test_dc_seed_outside_budget;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "parallel matches serial bitwise" `Slow
            test_sweep_parallel_matches_serial;
          Alcotest.test_case "crashing job isolated" `Quick
            test_sweep_isolates_crashing_job;
          Alcotest.test_case "deadline propagates to jobs" `Quick
            test_sweep_deadline_propagates;
          Alcotest.test_case "per-job newton cap" `Quick
            test_sweep_max_newton_per_job;
          Alcotest.test_case "pool order and clamping" `Quick
            test_pool_order_and_clamp;
        ] );
      ( "warm sweep",
        [
          Alcotest.test_case "seeded sweep bitwise on 1, 2, 4 domains" `Quick
            test_warm_sweep_seeds_dependents;
          Alcotest.test_case "cold multi-step jobs bitwise on 2 domains" `Quick
            test_cold_sweep_forcing_per_solve;
          Alcotest.test_case "nested start bitwise on 1, 2, 4 domains" `Quick
            test_nested_sweep_bitwise;
          Alcotest.test_case "resume re-solves the anchor silently" `Quick
            test_warm_sweep_resume;
          Alcotest.test_case "seeded failure falls back cold" `Quick
            test_warm_sweep_cold_fallback;
          Alcotest.test_case "zero-step seed takes one step" `Quick
            test_warm_sweep_zero_step_seed;
          Alcotest.test_case "catalog digests" `Quick test_warm_digest;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "domain-local recorders" `Quick
            test_telemetry_domain_isolation;
          Alcotest.test_case "per-job telemetry in sweeps" `Quick
            test_sweep_per_job_telemetry;
        ] );
      ( "single-time",
        [
          Alcotest.test_case "every catalog circuit" `Slow test_single_time_table;
          Alcotest.test_case "iteration cap and budget" `Quick
            test_single_time_limits;
          Alcotest.test_case "multiple shooting matches shooting" `Slow
            test_multiple_shooting_matches_shooting;
        ] );
      ( "compat",
        [
          Alcotest.test_case "run is deterministic" `Quick
            test_run_deterministic;
        ] );
    ]
