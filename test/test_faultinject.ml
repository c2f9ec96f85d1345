(* Fault-tolerance layer: deterministic fault injection driving every
   escalation-ladder stage, retry with decorrelated-jitter backoff on
   the injectable clock, watchdog degradation, and the checkpoint log's
   round-trip/digest/corruption behavior. Every test installs its plan
   with Fun.protect so a failure cannot leak injection into siblings. *)

module FI = Resilience.Faultinject
module W = Circuit.Waveform

let with_plan spec f =
  FI.install (FI.parse_exn spec);
  Fun.protect ~finally:FI.uninstall f

(* ---------- plan parsing ---------- *)

let test_parse_roundtrip () =
  let spec = "seed=7,nan@residual/newton:1,crash@job/#1:2x3,slow@newton:~0.25=0.5" in
  match FI.parse spec with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "seed" 7 p.FI.seed;
      Alcotest.(check int) "faults" 3 (Array.length p.FI.faults);
      Alcotest.(check string) "roundtrip" spec (FI.to_string p);
      (match p.FI.faults.(1).FI.trigger with
      | FI.Nth { first; count } ->
          Alcotest.(check int) "first" 2 first;
          Alcotest.(check int) "count" 3 count
      | _ -> Alcotest.fail "expected Nth trigger");
      Alcotest.(check (option string))
        "filter" (Some "#1") p.FI.faults.(1).FI.filter

let test_parse_errors () =
  List.iter
    (fun bad ->
      match FI.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "nan@residual"; "bogus@job:1"; "nan@elsewhere:1"; "nan@residual:zero"; "crash@job:~1.5" ]

let test_prob_deterministic () =
  let a = FI.uniform ~seed:3 ~salt:"job#1" 5 in
  let b = FI.uniform ~seed:3 ~salt:"job#1" 5 in
  let c = FI.uniform ~seed:4 ~salt:"job#1" 5 in
  Alcotest.(check (float 0.0)) "same key same draw" a b;
  Alcotest.(check bool) "different seed different draw" true (a <> c);
  Alcotest.(check bool) "in range" true (a >= 0.0 && a < 1.0)

(* Pinned draws: [uniform] feeds Prob triggers and Retry's backoff
   jitter, so a change in its FNV-1a/splitmix64 arithmetic would move
   every seeded fault plan and backoff schedule. *)
let test_uniform_pinned () =
  List.iter
    (fun (seed, salt, index, expected) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "uniform seed=%d salt=%S %d" seed salt index)
        expected (FI.uniform ~seed ~salt index))
    [
      (0, "", 0, 0x1.ef084011af584p-2);
      (7, "job#1", 1, 0x1.7cd27a67fe5d4p-3);
      (3, "job#1", 5, 0x1.760e54ea50e67p-1);
      (42, "rc:mpde:fd=1000", 2, 0x1.5dba659886ee8p-1);
      (-1, "residual/newton", 1000003, 0x1.f30be4bf7f0d4p-3);
    ]

(* ---------- hooks in isolation ---------- *)

let test_corrupt_vector_counts () =
  with_plan "nan@residual:2" @@ fun () ->
  FI.with_scope ~key:"t" @@ fun () ->
  let v = [| 1.0; 2.0 |] in
  FI.corrupt_vector FI.Residual v;
  Alcotest.(check bool) "first occurrence clean" true (Float.is_finite v.(0));
  FI.corrupt_vector FI.Residual v;
  Alcotest.(check bool) "second occurrence poisoned" true (Float.is_nan v.(0))

let test_scope_resets_counters () =
  with_plan "crash@job:1" @@ fun () ->
  let crashed f =
    match f () with
    | exception FI.Injected_crash _ -> true
    | () -> false
  in
  Alcotest.(check bool) "attempt 1 crashes" true
    (crashed (fun () -> FI.with_scope ~key:"j#1" (fun () -> FI.fire_point FI.Job)));
  Alcotest.(check bool) "attempt 2 crashes again (fresh scope)" true
    (crashed (fun () -> FI.with_scope ~key:"j#2" (fun () -> FI.fire_point FI.Job)))

let test_filter_targets_scope () =
  with_plan "crash@job/#2:1" @@ fun () ->
  FI.with_scope ~key:"j#1" (fun () -> FI.fire_point FI.Job);
  Alcotest.(check bool) "filtered attempt raises" true
    (match FI.with_scope ~key:"j#2" (fun () -> FI.fire_point FI.Job) with
    | exception FI.Injected_crash _ -> true
    | () -> false)

let test_slow_ages_clock () =
  with_plan "slow@newton:1=3.5" @@ fun () ->
  FI.with_scope ~key:"t" @@ fun () ->
  let t0 = Telemetry.Clock.wall () in
  FI.fire_point FI.Newton_iter;
  let dt = Telemetry.Clock.wall () -. t0 in
  Alcotest.(check bool) "clock skewed by ~3.5s" true (dt >= 3.5 && dt < 4.5)

let test_uninstall_restores_clock () =
  with_plan "slow@newton:1=1000.0" (fun () ->
      FI.with_scope ~key:"t" (fun () -> FI.fire_point FI.Newton_iter));
  (* After uninstall the monotonic source is back: two consecutive
     readings cannot be 1000 s apart. *)
  let a = Telemetry.Clock.wall () in
  let b = Telemetry.Clock.wall () in
  Alcotest.(check bool) "no residual skew" true (b -. a < 100.0)

let test_manual_clock_sleep () =
  let src, _advance = Telemetry.Clock.manual () in
  Telemetry.Clock.install src;
  Fun.protect ~finally:Telemetry.Clock.uninstall @@ fun () ->
  let t0 = Telemetry.Clock.wall () in
  Telemetry.Clock.sleep 2.5;
  Alcotest.(check (float 1e-9)) "sleep advances manual time" 2.5
    (Telemetry.Clock.wall () -. t0)

(* ---------- retry backoff ---------- *)

let test_backoff_bounds_and_determinism () =
  let p = { Resilience.Retry.default with Resilience.Retry.cap_seconds = 0.5 } in
  let d1 = Resilience.Retry.backoff p ~salt:"job-a" ~attempt:1 ~prev:0.0 in
  let d1' = Resilience.Retry.backoff p ~salt:"job-a" ~attempt:1 ~prev:0.0 in
  let d2 = Resilience.Retry.backoff p ~salt:"job-a" ~attempt:2 ~prev:d1 in
  Alcotest.(check (float 0.0)) "deterministic" d1 d1';
  List.iter
    (fun d ->
      Alcotest.(check bool) "within [base, cap]" true
        (d >= p.Resilience.Retry.base_seconds && d <= p.Resilience.Retry.cap_seconds))
    [ d1; d2 ];
  let other = Resilience.Retry.backoff p ~salt:"job-b" ~attempt:1 ~prev:0.0 in
  Alcotest.(check bool) "decorrelated across jobs" true (d1 <> other)

(* ---------- ladder reachability on the engine ---------- *)

let small_options =
  { Engine.Options.default with n1 = 16; n2 = 12; steps_per_period = 64 }

(* Voltage-driven RC: the MNA carries a source branch row. *)
let rc_problem ?(label = "rc") ?(f_fast = 1e6) ?(fd = 1e4) () =
  Engine.Problem.make ~label ~output:"out" ~f_fast ~fd (fun () ->
      Circuits.rc_lowpass
        ~drive:
          (W.sum
             (W.sine ~amplitude:1.0 ~freq:f_fast ())
             (W.sine ~amplitude:1.0 ~freq:(f_fast +. fd) ()))
        ())

(* Current-driven RC: node-only unknowns, no branch rows. *)
let current_rc_problem ?(f_fast = 1e6) ?(fd = 1e4) () =
  Engine.Problem.make ~label:"irc" ~output:"out" ~f_fast ~fd (fun () ->
      let nl = Circuit.Netlist.create () in
      Circuit.Netlist.isource nl "i1" "0" "out"
        (W.sum
           (W.sine ~amplitude:1e-3 ~freq:f_fast ())
           (W.sine ~amplitude:1e-3 ~freq:(f_fast +. fd) ()));
      Circuit.Netlist.resistor nl "r1" "out" "0" 1e3;
      Circuit.Netlist.capacitor nl "c1" "out" "0" 1e-9;
      { Circuits.netlist = nl; mna = Circuit.Mna.build nl })

let run_mpde ?spec problem =
  let go () =
    FI.with_scope ~key:problem.Engine.Problem.label @@ fun () ->
    Engine.run problem (Engine.make ~options:small_options Engine.Mpde)
  in
  match spec with None -> go () | Some spec -> with_plan spec go

let strategy (r : Engine.Result.t) =
  Option.value ~default:"?" r.Engine.Result.report.Resilience.Report.strategy

let check_rescued ~expect spec problem =
  let r = run_mpde ~spec problem in
  Alcotest.(check bool)
    (Printf.sprintf "%s converged" expect)
    true r.Engine.Result.converged;
  Alcotest.(check string)
    (Printf.sprintf "rescued by %s" expect)
    expect (strategy r)

let test_stage_newton () =
  let r = run_mpde (rc_problem ()) in
  Alcotest.(check string) "clean solve stays on newton" "newton" (strategy r)

let test_stage_direct_lu () =
  (* Stall the first-stage GMRES only while the ladder is on its
     "newton" rung; direct-lu then runs uninjected and rescues. *)
  check_rescued ~expect:"direct-lu" "stall@gmres/newton:1x9999" (rc_problem ())

let test_stage_direct_lu_every_circuit () =
  (* Every built-in circuit, with and without branch rows: direct-lu
     is the only linear fallback, so a linear stall on the "newton"
     rung is rescued by it, and the report records the four rungs. A
     nonlinear circuit's start probe on the coarsest grid meets the
     stall first and leaves its own row ahead of them. *)
  let rows =
    ("irc", [], current_rc_problem ())
    :: List.map
         (fun (c : Serve.Catalog.t) ->
           ( c.Serve.Catalog.name,
             (if c.Serve.Catalog.name = "rc" then [] else [ "probe@4x3" ]),
             Serve.Catalog.problem_of c ~f_fast:c.Serve.Catalog.default_fast
               ~fd:c.Serve.Catalog.default_fd ))
         Serve.Catalog.all
  in
  List.iter
    (fun (name, probe, problem) ->
      let r = run_mpde ~spec:"stall@gmres/newton:1x9999" problem in
      Alcotest.(check bool) (name ^ " converged") true r.Engine.Result.converged;
      Alcotest.(check string) (name ^ " rescued by direct-lu") "direct-lu" (strategy r);
      Alcotest.(check (list string))
        (name ^ " stages")
        (probe @ [ "newton"; "direct-lu"; "source-ramp"; "ptc-ramp" ])
        (List.map
           (fun s -> s.Resilience.Report.name)
           r.Engine.Result.report.Resilience.Report.stages))
    rows

let test_stage_source_ramp () =
  (* A non-finite residual is a Nonlinear/Non_finite failure: the
     linear rungs do not apply, the ladder jumps to the ramps. *)
  check_rescued ~expect:"source-ramp" "nan@residual/newton:1" (rc_problem ())

let test_stage_ptc_ramp () =
  check_rescued ~expect:"ptc-ramp"
    "nan@residual/newton:1,nan@residual/source-ramp:1x9999" (rc_problem ())

(* The Jacobian fault damages the G and C the first linear solve sees
   (row 0 of point 0 zeroed): the GMRES rung fails, and direct-lu
   restarts Newton, whose first residual loads every point's G and C
   from the circuit again. The damage is gone, bit for bit: the rescued
   answer is a clean direct solve's. *)
let test_jacobian_damage_transient () =
  let f_fast = 1e6 and fd = 1e4 in
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass
      ~drive:
        (W.sum (W.sine ~amplitude:1.0 ~freq:f_fast ()) (W.sine ~amplitude:1.0 ~freq:(f_fast +. fd) ()))
      ()
  in
  let shear = Mpde.Shear.make ~fast_freq:f_fast ~slow_freq:fd in
  let solve ?options () = Mpde.Solver.solve_mna ?options ~shear ~n1:16 ~n2:12 mna in
  let faulted =
    with_plan "singular@jacobian:1" (fun () -> FI.with_scope ~key:"rc" (fun () -> solve ()))
  in
  let clean =
    solve ~options:{ Mpde.Solver.default_options with linear_solver = Mpde.Solver.Direct } ()
  in
  Alcotest.(check bool) "faulted solve converged" true
    faulted.Mpde.Solver.stats.Mpde.Solver.converged;
  Alcotest.(check string) "rescued by direct-lu" "direct-lu"
    faulted.Mpde.Solver.stats.Mpde.Solver.strategy;
  Alcotest.(check bool) "rescued answer = clean direct answer, bit for bit" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       faulted.Mpde.Solver.big_x clean.Mpde.Solver.big_x)

(* ---------- sweep retry / degradation / failure context ---------- *)

let sweep_jobs ?(labels = [| "fd=1000"; "fd=2000" |]) () =
  Array.map
    (fun label ->
      let fd = float_of_string (String.sub label 3 (String.length label - 3)) in
      Engine.Sweep.job ~label ~options:small_options ~kind:Engine.Mpde
        (rc_problem ~label ~fd ()))
    labels

let fast_retry =
  (* Manual-clock-free speed: real sleeps, microscopic backoff. *)
  {
    Resilience.Retry.default with
    Resilience.Retry.base_seconds = 1e-4;
    cap_seconds = 1e-3;
  }

let test_retry_rescues_crash () =
  let clean = Engine.Sweep.run ~domains:1 (sweep_jobs ()) in
  with_plan "crash@job/#1:1" @@ fun () ->
  let outcomes =
    Engine.Sweep.run ~domains:1 ~retry:fast_retry (sweep_jobs ())
  in
  Array.iteri
    (fun i (o : Engine.Sweep.outcome) ->
      match (o.Engine.Sweep.result, clean.(i).Engine.Sweep.result) with
      | Ok r, Ok rc ->
          Alcotest.(check bool) "retried job converged" true
            r.Engine.Result.converged;
          Alcotest.(check int) "second attempt succeeded" 2
            o.Engine.Sweep.attempts;
          Alcotest.(check int) "one retry" 1 (Engine.Sweep.retries o);
          Alcotest.(check bool) "not degraded" false o.Engine.Sweep.degraded;
          (* The retried attempt reruns the identical computation. *)
          Alcotest.(check bool) "waveform bitwise equals clean run" true
            (r.Engine.Result.waveform = rc.Engine.Result.waveform)
      | _ -> Alcotest.failf "job %d did not come back Ok" i)
    outcomes

let test_no_retry_preserves_failure_context () =
  with_plan "crash@job/#1:1" @@ fun () ->
  let outcomes =
    Engine.Sweep.run ~domains:1 ~retry:Resilience.Retry.none
      (sweep_jobs ~labels:[| "fd=1000" |] ())
  in
  match outcomes.(0).Engine.Sweep.result with
  | Ok _ -> Alcotest.fail "expected the injected crash to surface"
  | Error f ->
      Alcotest.(check bool) "names the injected crash" true
        (String.length f.Engine.Sweep.message > 0
        &&
        let sub = "Injected_crash" in
        let n = String.length sub and m = String.length f.Engine.Sweep.message in
        let rec at i =
          i + n <= m
          && (String.sub f.Engine.Sweep.message i n = sub || at (i + 1))
        in
        at 0)

let test_crash_mid_ladder_records_stage () =
  (* Crash on the 2nd Newton iteration of the source-ramp rung: the
     failure context must name the stage the ladder was on. *)
  with_plan "nan@residual/newton:1,crash@newton/source-ramp:2" @@ fun () ->
  let outcomes =
    Engine.Sweep.run ~domains:1 ~retry:Resilience.Retry.none
      (sweep_jobs ~labels:[| "fd=1000" |] ())
  in
  match outcomes.(0).Engine.Sweep.result with
  | Ok _ -> Alcotest.fail "expected the injected crash to surface"
  | Error f ->
      Alcotest.(check (option string))
        "ladder stage recorded" (Some "source-ramp") f.Engine.Sweep.stage

let test_watchdog_degrades () =
  (* Poison every regular attempt; the watchdog's degraded attempt
     (scope "#d") runs clean and must rescue the job. *)
  with_plan "crash@job/#1:1,crash@job/#2:1,crash@job/#3:1" @@ fun () ->
  let retry = { fast_retry with Resilience.Retry.max_attempts = 3 } in
  let outcomes =
    Engine.Sweep.run ~domains:1 ~retry (sweep_jobs ~labels:[| "fd=1000" |] ())
  in
  let o = outcomes.(0) in
  match o.Engine.Sweep.result with
  | Error f -> Alcotest.failf "not rescued: %s" (Engine.Sweep.failure_to_string f)
  | Ok r ->
      Alcotest.(check bool) "degraded result converged" true
        r.Engine.Result.converged;
      Alcotest.(check bool) "flagged degraded" true o.Engine.Sweep.degraded;
      Alcotest.(check int) "all regular attempts used" 3 o.Engine.Sweep.attempts

let test_clean_path_zero_retries () =
  let outcomes =
    Engine.Sweep.run ~domains:2 ~retry:fast_retry (sweep_jobs ())
  in
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      Alcotest.(check int) "single attempt" 1 o.Engine.Sweep.attempts;
      Alcotest.(check bool) "not degraded" false o.Engine.Sweep.degraded)
    outcomes

(* ---------- checkpoint ---------- *)

let tmpfile () = Filename.temp_file "rfss_ckpt" ".jsonl"

let test_checkpoint_roundtrip () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let outcomes =
    Engine.Sweep.run ~domains:1 (sweep_jobs ~labels:[| "fd=1000" |] ())
  in
  let r = Engine.Checkpoint.of_outcome outcomes.(0) in
  let log = Engine.Checkpoint.create path in
  Engine.Checkpoint.append log r;
  (* Idempotent on key: re-appending replaces, not duplicates. *)
  Engine.Checkpoint.append log r;
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "one record" 1 (List.length lines);
  (* Reopening loads only records whose digest checks out. *)
  match Engine.Checkpoint.find (Engine.Checkpoint.create path) ~key:r.key with
  | Some r' -> Alcotest.(check bool) "bitwise round trip" true (r = r')
  | None -> Alcotest.fail "record not reloaded"

let test_checkpoint_skips_corrupt_lines () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let outcomes = Engine.Sweep.run ~domains:1 (sweep_jobs ()) in
  let log = Engine.Checkpoint.create path in
  Array.iter
    (fun o -> Engine.Checkpoint.append log (Engine.Checkpoint.of_outcome o))
    outcomes;
  (* Corrupt the log: torn trailing line plus a flipped digest. *)
  let lines =
    String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
    |> List.filter (fun l -> l <> "")
  in
  let tampered =
    match lines with
    | a :: b :: _ ->
        let b' =
          String.map (fun c -> if c = '0' then '1' else c) b
        in
        [ a; b'; "{\"torn\":" ]
    | _ -> Alcotest.fail "expected two records"
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) tampered);
  let reopened = Engine.Checkpoint.create path in
  let kept key = Engine.Checkpoint.find reopened ~key <> None in
  let tampered_key =
    match tampered with
    | [ _; b'; _ ] ->
        Option.get (Option.bind (Telemetry.Json.member "key" (Telemetry.Json.parse b')) Telemetry.Json.str)
    | _ -> assert false
  in
  Alcotest.(check (list bool)) "only the intact record survives" [ true; false; false ]
    [
      kept (Engine.Checkpoint.of_outcome outcomes.(0)).key;
      kept (Engine.Checkpoint.of_outcome outcomes.(1)).key;
      kept tampered_key;
    ]

let test_checkpoint_resume_skips_done () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let jobs = sweep_jobs () in
  let log = Engine.Checkpoint.create path in
  let ran = ref 0 in
  let outcomes =
    Engine.Sweep.run ~domains:1
      ~on_outcome:(fun o ->
        incr ran;
        Engine.Checkpoint.append log (Engine.Checkpoint.of_outcome o))
      jobs
  in
  Alcotest.(check int) "all jobs ran once" (Array.length jobs) !ran;
  (* A second run against the same log finds every key. *)
  let log2 = Engine.Checkpoint.create path in
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      let r = Engine.Checkpoint.of_outcome o in
      match Engine.Checkpoint.find log2 ~key:r.Engine.Checkpoint.key with
      | None -> Alcotest.failf "missing key %s" r.Engine.Checkpoint.key
      | Some cached ->
          Alcotest.(check string) "cached waveform hash matches"
            r.Engine.Checkpoint.waveform_hash
            cached.Engine.Checkpoint.waveform_hash)
    outcomes

let () =
  Alcotest.run "faultinject"
    [
      ( "plan",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "prob trigger deterministic" `Quick
            test_prob_deterministic;
          Alcotest.test_case "uniform draws pinned" `Quick test_uniform_pinned;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "nth occurrence corrupts" `Quick
            test_corrupt_vector_counts;
          Alcotest.test_case "scope resets counters" `Quick
            test_scope_resets_counters;
          Alcotest.test_case "filter targets scope" `Quick
            test_filter_targets_scope;
          Alcotest.test_case "slow ages clock" `Quick test_slow_ages_clock;
          Alcotest.test_case "uninstall restores clock" `Quick
            test_uninstall_restores_clock;
          Alcotest.test_case "manual clock sleep" `Quick test_manual_clock_sleep;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff bounds and determinism" `Quick
            test_backoff_bounds_and_determinism;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "newton (clean)" `Quick test_stage_newton;
          Alcotest.test_case "direct-lu rescue, every circuit" `Quick
            test_stage_direct_lu_every_circuit;
          Alcotest.test_case "direct-lu rescue" `Quick test_stage_direct_lu;
          Alcotest.test_case "source-ramp rescue" `Quick test_stage_source_ramp;
          Alcotest.test_case "ptc-ramp rescue" `Quick test_stage_ptc_ramp;
          Alcotest.test_case "jacobian damage transient" `Quick test_jacobian_damage_transient;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "retry rescues crash" `Quick
            test_retry_rescues_crash;
          Alcotest.test_case "failure context preserved" `Quick
            test_no_retry_preserves_failure_context;
          Alcotest.test_case "mid-ladder crash records stage" `Quick
            test_crash_mid_ladder_records_stage;
          Alcotest.test_case "watchdog degrades" `Quick test_watchdog_degrades;
          Alcotest.test_case "clean path zero retries" `Quick
            test_clean_path_zero_retries;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip and digest" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "skips corrupt lines" `Quick
            test_checkpoint_skips_corrupt_lines;
          Alcotest.test_case "resume finds keys" `Quick
            test_checkpoint_resume_skips_done;
        ] );
    ]
