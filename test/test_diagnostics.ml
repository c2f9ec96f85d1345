(* Tests for the diagnostics subsystem: the convergence classifier on
   synthetic trajectories, condition estimates against matrices with
   known κ, the metric registry's Prometheus/CSV
   round-trips, the JSON codec, the perf-regression gate, and
   the end-to-end pieces — Newton residual histories on a real solve and
   the diagonal-consistency residual on the quickstart circuit. *)

module W = Circuit.Waveform
module D = Diagnostics

(* ---------- Convergence classifier ---------- *)

let geometric r0 ratio n = Array.init n (fun k -> r0 *. (ratio ** float_of_int k))

let test_classify_quadratic () =
  (* r_{k+1} = r_k^2: the textbook Newton tail. *)
  let h = [| 1e-1; 1e-2; 1e-4; 1e-8; 1e-16 |] in
  match D.Convergence.classify h with
  | D.Convergence.Quadratic -> ()
  | c -> Alcotest.failf "expected quadratic, got %s" (D.Convergence.to_string c)

let test_classify_linear () =
  let h = geometric 1.0 0.3 8 in
  match D.Convergence.classify h with
  | D.Convergence.Linear rate ->
      Alcotest.(check bool)
        (Printf.sprintf "rate %.3f near 0.3" rate)
        true
        (Float.abs (rate -. 0.3) < 0.02)
  | c -> Alcotest.failf "expected linear, got %s" (D.Convergence.to_string c)

let test_classify_stagnating () =
  match D.Convergence.classify (geometric 1.0 0.99 10) with
  | D.Convergence.Stagnating -> ()
  | c -> Alcotest.failf "expected stagnating, got %s" (D.Convergence.to_string c)

let test_classify_diverging () =
  (match D.Convergence.classify (geometric 1.0 2.0 6) with
  | D.Convergence.Diverging -> ()
  | c -> Alcotest.failf "expected diverging, got %s" (D.Convergence.to_string c));
  (* Oscillating but ending far above the start also counts. *)
  match D.Convergence.classify [| 1.0; 0.5; 3.0; 0.8; 20.0 |] with
  | D.Convergence.Diverging -> ()
  | c ->
      Alcotest.failf "expected diverging (final >10x), got %s"
        (D.Convergence.to_string c)

let test_classify_rescued () =
  match D.Convergence.classify ~strategy:"source-ramp" (geometric 1.0 0.5 6) with
  | D.Convergence.Rescued "source-ramp" -> ()
  | c -> Alcotest.failf "expected rescued, got %s" (D.Convergence.to_string c)

let test_classify_insufficient_and_cleaning () =
  (match D.Convergence.classify [| 1.0; 0.1 |] with
  | D.Convergence.Insufficient_data -> ()
  | c -> Alcotest.failf "expected insufficient, got %s" (D.Convergence.to_string c));
  (* Non-finite and non-positive samples are dropped before analysis. *)
  match D.Convergence.classify [| nan; 1.0; -3.0; 0.3; infinity; 0.09; 0.0 |] with
  | D.Convergence.Linear _ | D.Convergence.Quadratic -> ()
  | c -> Alcotest.failf "expected contraction after cleaning, got %s"
           (D.Convergence.to_string c)

(* ---------- Condition estimates ---------- *)

(* diag(1..10) has exactly kappa = 10 in the 2-norm, and the power
   iterations align with the coordinate eigenvectors, so both the dense
   and the sparse estimator should land within a few percent. *)

let test_condest_dense_known_kappa () =
  let n = 10 in
  let a = Linalg.Mat.init n n (fun i j -> if i = j then float_of_int (i + 1) else 0.0) in
  let k = D.Condest.condest_dense a (Linalg.Lu.factor a) in
  Alcotest.(check bool)
    (Printf.sprintf "kappa %.3f near 10" k)
    true
    (Float.abs (k -. 10.0) < 0.5)

let test_condest_csr_known_kappa () =
  let n = 10 in
  let coo = Sparse.Coo.create n n in
  for i = 0 to n - 1 do
    Sparse.Coo.add coo i i (float_of_int (i + 1))
  done;
  let a = Sparse.Csr.of_coo coo in
  let k = D.Condest.condest_csr a (Sparse.Splu.factor a) in
  Alcotest.(check bool)
    (Printf.sprintf "kappa %.3f near 10" k)
    true
    (k <= 10.5 && k > 9.0);
  (* On a nonsymmetric matrix the sparse estimate uses the spectral
     radius of A⁻¹, a lower bound on its 2-norm: it must not exceed the
     dense estimate, which iterates on A⁻¹ and A⁻ᵀ. *)
  let coo = Sparse.Coo.create n n in
  for i = 0 to n - 1 do
    Sparse.Coo.add coo i i (float_of_int (i + 1));
    if i + 1 < n then Sparse.Coo.add coo i (i + 1) 4.0
  done;
  let a = Sparse.Csr.of_coo coo in
  let dense = Support.csr_to_dense a in
  let sparse_k = D.Condest.condest_csr a (Sparse.Splu.factor a) in
  let dense_k = D.Condest.condest_dense dense (Linalg.Lu.factor dense) in
  Alcotest.(check bool)
    (Printf.sprintf "sparse %.3f <= dense %.3f" sparse_k dense_k)
    true
    (sparse_k <= dense_k *. (1.0 +. 1e-9) && sparse_k >= 1.0)

let test_condest_identity () =
  let a = Linalg.Mat.identity 6 in
  let k = D.Condest.condest_dense a (Linalg.Lu.factor a) in
  Alcotest.(check bool) (Printf.sprintf "kappa %.3f near 1" k) true
    (Float.abs (k -. 1.0) < 1e-6)

(* ---------- Registry round-trips ---------- *)

let fill_registry () =
  let reg = D.Registry.create () in
  D.Registry.gauge reg ~help:"final residual" "newton.residual_norm" 3.25e-11;
  D.Registry.counter reg "gmres.budget_stops" 2.0;
  D.Registry.gauge reg
    ~labels:[ ("stage", "direct-lu"); ("grid", "40x30") ]
    "health.stage_iterations" 7.0;
  D.Registry.gauge reg ~labels:[ ("quote", "say \"hi\"\nok") ] "odd.label" 1.0;
  reg

let test_prometheus_round_trip () =
  let reg = fill_registry () in
  let page = D.Registry.to_prometheus reg in
  let parsed = D.Registry.parse_prometheus page in
  Alcotest.(check int) "sample count" 4 (List.length parsed);
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) parsed with
    | Some (_, labels, v) -> (labels, v)
    | None -> Alcotest.failf "missing sample %s in:\n%s" name page
  in
  let _, v = find "rfss_newton_residual_norm" in
  Alcotest.(check (float 1e-22)) "gauge value survives" 3.25e-11 v;
  let _, v = find "rfss_gmres_budget_stops_total" in
  Alcotest.(check (float 0.0)) "counter gets _total" 2.0 v;
  let labels, v = find "rfss_health_stage_iterations" in
  Alcotest.(check (float 0.0)) "labelled value" 7.0 v;
  Alcotest.(check bool) "labels survive" true
    (List.assoc_opt "stage" labels = Some "direct-lu"
    && List.assoc_opt "grid" labels = Some "40x30");
  let labels, _ = find "rfss_odd_label" in
  Alcotest.(check bool) "escaped label round-trips" true
    (List.assoc_opt "quote" labels = Some "say \"hi\"\nok")

let test_csv_round_trip () =
  let reg = fill_registry () in
  let parsed = Support.parse_registry_csv (D.Registry.to_csv reg) in
  Alcotest.(check int) "sample count" 4 (List.length parsed);
  let find name =
    match List.find_opt (fun s -> s.D.Registry.name = name) parsed with
    | Some s -> s
    | None -> Alcotest.failf "missing csv row %s" name
  in
  let s = find "rfss_gmres_budget_stops" in
  Alcotest.(check bool) "kind survives" true (s.D.Registry.kind = D.Registry.Counter);
  Alcotest.(check (float 0.0)) "value survives" 2.0 s.D.Registry.value;
  let s = find "rfss_health_stage_iterations" in
  Alcotest.(check bool) "labels survive" true
    (List.assoc_opt "stage" s.D.Registry.labels = Some "direct-lu")

let test_sanitize_name () =
  (* The name one sample is exposed under in the Prometheus page. *)
  let exposed add name =
    let reg = D.Registry.create () in
    add reg name 1.0;
    match D.Registry.parse_prometheus (D.Registry.to_prometheus reg) with
    | [ (n, _, _) ] -> n
    | l -> Alcotest.failf "%s: expected one sample, got %d" name (List.length l)
  in
  let counter reg name v = D.Registry.counter reg name v
  and gauge reg name v = D.Registry.gauge reg name v in
  Alcotest.(check string) "dots to underscores" "rfss_mpde_solve_wall"
    (exposed gauge "mpde.solve.wall");
  Alcotest.(check string) "counter suffix" "rfss_retries_total"
    (exposed counter "retries");
  Alcotest.(check string) "idempotent" "rfss_retries_total"
    (exposed counter "rfss_retries_total")

let test_registry_of_telemetry () =
  Telemetry.enable ();
  Telemetry.span "outer" (fun () ->
      Telemetry.count ~by:3 "widgets";
      Telemetry.gauge "level" 0.5;
      Telemetry.observe "res" 1.0;
      Telemetry.observe "res" 3.0);
  let snap = match Telemetry.snapshot () with Some s -> s | None -> assert false in
  Telemetry.disable ();
  let reg = D.Registry.of_telemetry snap in
  let samples = D.Registry.samples reg in
  let value ?(labels = []) name =
    match
      List.find_opt
        (fun s -> s.D.Registry.name = name && s.D.Registry.labels = labels)
        samples
    with
    | Some s -> s.D.Registry.value
    | None -> Alcotest.failf "missing metric %s" name
  in
  Alcotest.(check (float 0.0)) "counter" 3.0 (value "widgets");
  Alcotest.(check (float 0.0)) "gauge" 0.5 (value "level");
  (* Histograms register as real bucketed families, with min/max riding
     along as sibling gauges (no place for them in the histogram shape). *)
  (match D.Registry.histograms reg with
  | [ ("res", [], h) ] ->
      Alcotest.(check int) "histogram count" 2 h.Telemetry.count;
      Alcotest.(check (float 0.0)) "histogram sum" 4.0 h.Telemetry.sum
  | _ -> Alcotest.fail "expected one histogram family 'res'");
  Alcotest.(check (float 0.0)) "histogram min gauge" 1.0 (value "res.min");
  Alcotest.(check (float 0.0)) "histogram max gauge" 3.0 (value "res.max");
  Alcotest.(check (float 0.0)) "span calls" 1.0
    (value ~labels:[ ("span", "outer") ] "span.calls")

(* ---------- Telemetry.Json ---------- *)

let test_json_round_trip () =
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("s", Str "a \"quoted\"\nline");
        ("n", Num 3.141592653589793);
        ("i", Num 42.0);
        ("b", Bool true);
        ("z", Null);
        ("a", Arr [ Num 1.0; Str "x"; Obj [ ("k", Bool false) ] ]);
      ]
  in
  let doc' = parse (to_string doc) in
  Alcotest.(check bool) "round-trips" true (doc = doc');
  Alcotest.(check bool) "path" true
    (path [ "a" ] doc' <> None
    && (match path [ "s" ] doc' with Some (Str s) -> s = "a \"quoted\"\nline" | _ -> false))

let test_json_parse_errors () =
  let open Telemetry.Json in
  let fails s = match parse s with exception Parse_error _ -> true | _ -> false in
  Alcotest.(check bool) "trailing garbage" true (fails "{} x");
  Alcotest.(check bool) "unterminated" true (fails "{\"a\": ");
  Alcotest.(check bool) "bare word" true (fails "bogus")

(* ---------- Gate ---------- *)

let bench_doc ?(converged = true) ?(wall = 1.0) ?(newton = 10.0) ?(gmres = 50.0)
    ?(block_factors = 1200.0) ?(precond_sweeps = 40.0) ?(ratio = 4.0)
    ?(spmv_mflops = 800.0) ?(block_cols = 2.0e6) ?(sweep_wall = 2.0)
    ?(sweep_speedup = 1.6) ?(sweep_speedup_4 = 1.4) ?(cores = 4.0)
    ?(retries = 0.0) ?(degraded = 0.0) ?(util_2 = 0.9) ?(util_4 = 0.8)
    ?(gc_major_p99 = 0.001) ?(shooting_words = 250.0) ?(mixer_words = 60000.0) () =
  let open Telemetry.Json in
  Obj
    [
      ( "mixer",
        Obj
          [
            ("converged", Bool converged);
            ("wall_seconds", Num wall);
            ("newton_iterations", Num newton);
            ("gmres_iterations", Num gmres);
            ("minor_words_per_newton", Num mixer_words);
            ("block_factors", Num block_factors);
            ( "telemetry",
              Obj
                [
                  ( "counters",
                    Obj
                      [
                        ("mpde.precond.sweeps", Num precond_sweeps);
                      ] );
                ] );
          ] );
      ("speedup", Obj [ ("ratio", Num ratio) ]);
      ("shooting", Obj [ ("minor_words_per_step", Num shooting_words) ]);
      ( "kernel",
        Obj
          [
            ("spmv_mflops", Num spmv_mflops);
            ("block_solve_cols_per_s", Num block_cols);
          ] );
      ( "sweep",
        Obj
          [
            ("wall_1", Num sweep_wall);
            ("speedup_2", Num sweep_speedup);
            ("speedup_4", Num sweep_speedup_4);
            ("cores", Num cores);
            ("retries", Num retries);
            ("degraded_jobs", Num degraded);
            ("domain_utilization_2", Num util_2);
            ("domain_utilization_4", Num util_4);
          ] );
      ("gc", Obj [ ("major_pause_p99", Num gc_major_p99) ]);
    ]

let test_gate_passes_identical () =
  let doc = bench_doc () in
  let r = Gate.evaluate ~baseline:doc ~current:doc () in
  Alcotest.(check bool) "passes" true r.Gate.passed;
  Alcotest.(check int) "no errors" 0 (List.length r.Gate.errors);
  Alcotest.(check int) "sixteen verdicts" 16 (List.length r.Gate.verdicts)

let test_gate_improvement_passes () =
  (* Faster wall clock and a better speedup ratio must never fail. *)
  let r =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(bench_doc ~wall:0.5 ~ratio:8.0 ())
      ()
  in
  Alcotest.(check bool) "improvement passes" true r.Gate.passed

let test_gate_fails_on_regression () =
  let r =
    Gate.evaluate ~baseline:(bench_doc ()) ~current:(bench_doc ~wall:1.3 ()) ()
  in
  Alcotest.(check bool) "30% wall regression fails" false r.Gate.passed;
  let bad = List.find (fun v -> not v.Gate.ok) r.Gate.verdicts in
  Alcotest.(check string) "the wall check tripped" "mixer.wall_seconds"
    bad.Gate.check.Gate.metric;
  (* A speedup-ratio drop is a regression even though the number fell. *)
  let r =
    Gate.evaluate ~baseline:(bench_doc ()) ~current:(bench_doc ~ratio:2.0 ()) ()
  in
  Alcotest.(check bool) "ratio drop fails" false r.Gate.passed

let test_gate_within_tolerance_passes () =
  let r =
    Gate.evaluate ~baseline:(bench_doc ()) ~current:(bench_doc ~wall:1.1 ()) ()
  in
  Alcotest.(check bool) "10% < 15% passes" true r.Gate.passed

let test_gate_hard_errors () =
  let r =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(bench_doc ~converged:false ())
      ()
  in
  Alcotest.(check bool) "non-convergence fails" false r.Gate.passed;
  Alcotest.(check bool) "with an error" true (r.Gate.errors <> []);
  let open Telemetry.Json in
  let r =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(Obj [ ("mixer", Obj [ ("converged", Bool true) ]) ])
      ()
  in
  Alcotest.(check bool) "missing metrics fail" false r.Gate.passed;
  Alcotest.(check bool) "missing metrics reported" true
    (List.length r.Gate.errors >= 4)

let test_gate_speedup_floor () =
  (* A multi-core runner whose parallel sweep loses to serial fails
     outright, even when the baseline blessed the same bad number. *)
  let slow = bench_doc ~sweep_speedup:0.4 ~cores:2.0 () in
  let r = Gate.evaluate ~baseline:slow ~current:slow () in
  Alcotest.(check bool) "sub-serial speedup on 2 cores fails" false
    r.Gate.passed;
  Alcotest.(check bool) "reported as an error" true
    (List.exists
       (fun e ->
         (* the floor is a hard error, not a relative verdict *)
         String.length e > 0 && String.sub e 0 8 = "parallel")
       r.Gate.errors);
  (* The 4-domain configuration has its own floor: a healthy 2-domain
     speedup does not excuse a 4-domain slowdown (that is contention,
     not a missing core). *)
  let slow4 = bench_doc ~sweep_speedup_4:0.7 ~cores:4.0 () in
  let r = Gate.evaluate ~baseline:slow4 ~current:slow4 () in
  Alcotest.(check bool) "sub-serial speedup_4 on 4 cores fails" false
    r.Gate.passed;
  Alcotest.(check bool) "speedup_4 floor names the metric" true
    (List.exists
       (fun e ->
         String.length e > 0
         && String.sub e 0 8 = "parallel"
         &&
         let rec contains i =
           i + 9 <= String.length e
           && (String.sub e i 9 = "speedup_4" || contains (i + 1))
         in
         contains 0)
       r.Gate.errors);
  (* Same numbers on a single-core runner: the floor is skipped (no
     parallelism to win) and the relative check carries the verdict. *)
  let serial = bench_doc ~sweep_speedup:0.4 ~sweep_speedup_4:0.4 ~cores:1.0 () in
  let r = Gate.evaluate ~baseline:serial ~current:serial () in
  Alcotest.(check bool) "single-core escape hatch passes" true r.Gate.passed;
  (* The growth in block factorizations is watched too. *)
  let r =
    Gate.evaluate
      ~baseline:(bench_doc ())
      ~current:(bench_doc ~block_factors:6000.0 ())
      ()
  in
  Alcotest.(check bool) "block-factor regression fails" false r.Gate.passed;
  (* So are the shooting job's words per step. *)
  let r =
    Gate.evaluate ~baseline:(bench_doc ()) ~current:(bench_doc ~shooting_words:400.0 ()) ()
  in
  Alcotest.(check bool) "shooting allocation regression fails" false r.Gate.passed;
  (* And the MPDE mixer's words per Newton iterate. *)
  let r =
    Gate.evaluate ~baseline:(bench_doc ()) ~current:(bench_doc ~mixer_words:120000.0 ()) ()
  in
  Alcotest.(check bool) "mixer allocation regression fails" false r.Gate.passed

let test_gate_exact_counts () =
  (* The mixer's counts are deterministic and watched at tolerance 0:
     one extra GMRES iteration (2 %) or sweep fails, even under a loose
     default tolerance; one fewer passes. *)
  let base = bench_doc () in
  let checks = Gate.default_checks 0.5 in
  let run current = (Gate.evaluate ~checks ~baseline:base ~current ()).Gate.passed in
  Alcotest.(check bool) "one more gmres iteration fails" false (run (bench_doc ~gmres:51.0 ()));
  Alcotest.(check bool) "one more sweep fails" false (run (bench_doc ~precond_sweeps:41.0 ()));
  Alcotest.(check bool) "one more newton step fails" false (run (bench_doc ~newton:11.0 ()));
  Alcotest.(check bool) "one more factor fails" false
    (run (bench_doc ~block_factors:1201.0 ()));
  Alcotest.(check bool) "one fewer gmres iteration passes" true (run (bench_doc ~gmres:49.0 ()))

let test_gate_retry_floor () =
  (* Any retry or degraded job on the bench's clean sweep is a hard
     error — the baseline blessing the same count does not excuse it. *)
  let noisy = bench_doc ~retries:2.0 () in
  let r = Gate.evaluate ~baseline:noisy ~current:noisy () in
  Alcotest.(check bool) "nonzero retries fail" false r.Gate.passed;
  let demoted = bench_doc ~degraded:1.0 () in
  let r = Gate.evaluate ~baseline:demoted ~current:demoted () in
  Alcotest.(check bool) "degraded job fails" false r.Gate.passed;
  let missing =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(bench_doc ~sweep_speedup:1.6 ())
      ()
  in
  Alcotest.(check bool) "zero counters pass" true missing.Gate.passed

let test_gate_absolute_slack () =
  (* gc.major_pause_p99 has 50ms of absolute slack: a pause going from
     1ms to 40ms is a +3900% relative "regression" but stays inside the
     band, so it passes; 200ms exceeds the band and the huge relative
     drift makes it fail. *)
  let r =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(bench_doc ~gc_major_p99:0.04 ())
      ()
  in
  Alcotest.(check bool) "inside the absolute band passes" true r.Gate.passed;
  let r =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(bench_doc ~gc_major_p99:0.2 ())
      ()
  in
  Alcotest.(check bool) "outside the band fails" false r.Gate.passed;
  let bad = List.find (fun v -> not v.Gate.ok) r.Gate.verdicts in
  Alcotest.(check string) "the gc check tripped" "gc.major_pause_p99"
    bad.Gate.check.Gate.metric;
  (* Utilization dropping 0.9 -> 0.75 is within the 0.2 band. *)
  let r =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(bench_doc ~util_2:0.75 ())
      ()
  in
  Alcotest.(check bool) "utilization wobble passes" true r.Gate.passed;
  (* A collapse to 0.3 is both outside the band and past the relative
     tolerance. *)
  let r =
    Gate.evaluate ~baseline:(bench_doc ())
      ~current:(bench_doc ~util_2:0.3 ())
      ()
  in
  Alcotest.(check bool) "utilization collapse fails" false r.Gate.passed

let test_gate_overrides () =
  let checks = Gate.default_checks ~overrides:[ ("mixer.wall_seconds", 0.5) ] 0.15 in
  let r =
    Gate.evaluate ~checks ~baseline:(bench_doc ()) ~current:(bench_doc ~wall:1.3 ())
      ()
  in
  Alcotest.(check bool) "loosened wall tolerance passes" true r.Gate.passed

(* ---------- Newton residual history (end to end) ---------- *)

let test_newton_history_recorded () =
  (* Scalar x^2 = 4 from x0 = 10: pure Newton, quadratic tail. *)
  let residual_into x r = r.(0) <- (x.(0) *. x.(0)) -. 4.0 in
  let solve_into x r d = d.(0) <- r.(0) /. (2.0 *. x.(0)) in
  let _, stats =
    Numeric.Newton.solve { Numeric.Newton.residual_into; solve_into } [| 10.0 |]
  in
  let h = stats.Numeric.Newton.residual_history in
  Alcotest.(check bool) "history nonempty" true (Array.length h >= 3);
  Alcotest.(check (float 0.0)) "starts at the initial residual" 96.0 h.(0);
  Array.iteri
    (fun k r ->
      if k > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "monotone at %d" k)
          true (r < h.(k - 1)))
    h;
  match D.Convergence.classify h with
  | D.Convergence.Quadratic -> ()
  | c -> Alcotest.failf "expected quadratic tail, got %s" (D.Convergence.to_string c)

(* ---------- Diagonal residual + health on the quickstart circuit ---------- *)

let quickstart_f1 = 1e6
let quickstart_fd = 1e3

let quickstart_circuit () =
  Circuits.rc_lowpass ~r:1e3 ~c:100e-12
    ~drive:
      (W.sum
         (W.sine ~amplitude:1.0 ~freq:quickstart_f1 ())
         (W.sine ~amplitude:1.0 ~freq:(quickstart_f1 +. quickstart_fd) ()))
    ()

let quickstart_solution () =
  let { Circuits.mna; _ } = quickstart_circuit () in
  let shear = Mpde.Shear.make ~fast_freq:quickstart_f1 ~slow_freq:quickstart_fd in
  (Mpde.Solver.solve_mna ~shear ~n1:32 ~n2:16 mna, mna)

let test_diagonal_residual_small_on_quickstart () =
  let sol, mna = quickstart_solution () in
  Alcotest.(check bool) "solve converged" true sol.Mpde.Solver.stats.converged;
  let unknown = Circuit.Mna.node_index mna "out" in
  let r = Mpde.Extract.diagonal_residual sol ~unknown in
  Alcotest.(check bool)
    (Printf.sprintf "diagonal residual %.4f at discretization level" r)
    true
    (Float.is_finite r && r >= 0.0 && r < 0.1)

(* The assessment rfss health prints: the engine's MPDE result, probed
   for κ and the diagonal residual. *)
let test_health_probe () =
  let problem =
    Engine.Problem.make ~label:"quickstart" ~output:"out" ~f_fast:quickstart_f1
      ~fd:quickstart_fd quickstart_circuit
  in
  let options = { Engine.Options.default with n1 = 32; n2 = 16 } in
  let r = Engine.run problem (Engine.make ~options Engine.Mpde) in
  let sol = Option.get r.Engine.Result.mpde_solution in
  let { Circuits.mna; _ } = quickstart_circuit () in
  let unknown = Circuit.Mna.node_index mna "out" in
  let h = D.Health.probe sol ~unknown r.Engine.Result.health in
  Alcotest.(check bool) "converged" true h.D.Health.converged;
  (match h.D.Health.condition_estimate with
  | Some k -> Alcotest.(check bool) "kappa finite and >= 1" true (Float.is_finite k && k >= 1.0)
  | None -> Alcotest.fail "no condition estimate");
  (match h.D.Health.diagonal_residual with
  | Some d -> Alcotest.(check bool) "diagonal residual small" true (d < 0.1)
  | None -> Alcotest.fail "no diagonal residual");
  let line = D.Health.summary_line h in
  Alcotest.(check bool) "summary line present" true
    (String.length line > 0 && String.sub line 0 7 = "health:");
  (* The JSON section must be parseable and must carry the headline
     numbers; the registry export must carry the marker gauge. *)
  let report = D.Health.attach h r.Engine.Result.report in
  (match Telemetry.Json.parse (List.assoc "diagnostics" report.Resilience.Report.sections) with
  | Telemetry.Json.Obj fields ->
      Alcotest.(check bool) "json has convergence" true
        (List.mem_assoc "convergence" fields && List.mem_assoc "newton_iterations" fields)
  | _ -> Alcotest.fail "health json is not an object");
  let reg = D.Health.to_registry h in
  let samples = D.Registry.samples reg in
  Alcotest.(check bool) "registry has the class marker" true
    (List.exists
       (fun s ->
         s.D.Registry.name = "health.convergence"
         && List.mem_assoc "class" s.D.Registry.labels)
       samples)

(* ---------- Registry snapshot publishing (Observe.Publish) ---------- *)

module P = Observe.Publish

(* Hammer the publish hub from several writer domains while a reader
   domain snapshots continuously: because one CAS swaps one immutable
   record, every snapshot must be internally consistent — finished
   never ahead of started, the job-wall histogram count equal to the
   finished count, and the per-worker tallies summing to it. A torn
   multi-cell implementation fails this immediately. *)
let test_publish_snapshot_consistency () =
  P.reset ();
  P.arm ();
  Fun.protect ~finally:(fun () ->
      P.disarm ();
      P.reset ())
  @@ fun () ->
  let writers = 4 and per_writer = 200 in
  P.run_started ~domains:writers ~phase:"test"
    ~total:(writers * per_writer) ();
  let stop = Atomic.make false in
  let violations = ref 0 and reads = ref 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let s = P.read_stats () in
          let worker_done =
            Array.fold_left (fun a w -> a + w.P.w_jobs_done) 0 s.P.workers
          in
          incr reads;
          if
            s.P.counts.P.finished > s.P.counts.P.started
            || s.P.job_wall.Telemetry.count <> s.P.counts.P.finished
            || worker_done <> s.P.counts.P.finished
          then incr violations;
          Domain.cpu_relax ()
        done)
  in
  let spawned =
    Array.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to per_writer do
              let job = Printf.sprintf "w%d-%d" w i in
              P.job_started ~job ~worker:w;
              P.job_finished ~job ~worker:w ~status:"ok"
                ~health:(Some "quadratic") ~wall_seconds:0.001 ~attempts:1
            done))
  in
  Array.iter Domain.join spawned;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check bool) "reader actually read" true (!reads > 0);
  Alcotest.(check int) "no torn snapshots" 0 !violations;
  let s = P.read_stats () in
  Alcotest.(check int) "all jobs finished" (writers * per_writer)
    s.P.counts.P.finished;
  Alcotest.(check int) "histogram saw every job" (writers * per_writer)
    s.P.job_wall.Telemetry.count;
  Alcotest.(check int) "worker array grew to every writer" writers
    (Array.length s.P.workers)

(* Under a frozen fake clock the /metrics rendering is a pure function
   of the published stats: two scrapes are byte-identical, and the text
   re-parses with the strict Prometheus parser to the published
   numbers. *)
let test_publish_prometheus_roundtrip () =
  let src, _advance = Telemetry.Clock.manual () in
  Telemetry.Clock.install src;
  P.reset ();
  P.arm ();
  Fun.protect ~finally:(fun () ->
      P.disarm ();
      P.reset ();
      Telemetry.Clock.uninstall ())
  @@ fun () ->
  P.run_started ~domains:2 ~phase:"test" ~total:3 ();
  for i = 0 to 2 do
    let job = Printf.sprintf "j%d" i in
    P.job_started ~job ~worker:(i mod 2);
    P.job_finished ~job ~worker:(i mod 2) ~status:"ok"
      ~health:(Some "linear") ~wall_seconds:0.25 ~attempts:1
  done;
  P.run_finished ();
  let text1 = D.Registry.to_prometheus (P.registry_snapshot ()) in
  let text2 = D.Registry.to_prometheus (P.registry_snapshot ()) in
  Alcotest.(check string) "scrape is deterministic under a frozen clock"
    text1 text2;
  let samples = D.Registry.parse_prometheus text1 in
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) samples with
    | Some (_, _, v) -> v
    | None -> Alcotest.fail ("missing sample " ^ name)
  in
  Alcotest.(check (float 0.0)) "finished counter" 3.0
    (value "rfss_sweep_jobs_finished_total");
  Alcotest.(check (float 0.0)) "total gauge" 3.0
    (value "rfss_sweep_jobs_total");
  Alcotest.(check (float 0.0)) "histogram count" 3.0
    (value "rfss_sweep_job_wall_seconds_count");
  Alcotest.(check (float 1e-9)) "histogram sum" 0.75
    (value "rfss_sweep_job_wall_seconds_sum");
  let labelled name key v =
    match
      List.find_opt
        (fun (n, ls, _) -> n = name && List.assoc_opt key ls = Some v)
        samples
    with
    | Some (_, _, x) -> x
    | None ->
        Alcotest.fail (Printf.sprintf "missing %s{%s=\"%s\"}" name key v)
  in
  Alcotest.(check (float 0.0)) "per-worker jobs" 2.0
    (labelled "rfss_sweep_worker_jobs_total" "worker" "0");
  Alcotest.(check (float 0.0)) "phase marker" 1.0
    (labelled "rfss_sweep_phase" "phase" "done")

(* ---------- run ---------- *)

let () =
  Alcotest.run "diagnostics"
    [
      ( "convergence",
        [
          Alcotest.test_case "quadratic" `Quick test_classify_quadratic;
          Alcotest.test_case "linear" `Quick test_classify_linear;
          Alcotest.test_case "stagnating" `Quick test_classify_stagnating;
          Alcotest.test_case "diverging" `Quick test_classify_diverging;
          Alcotest.test_case "rescued" `Quick test_classify_rescued;
          Alcotest.test_case "insufficient + cleaning" `Quick
            test_classify_insufficient_and_cleaning;
        ] );
      ( "condest",
        [
          Alcotest.test_case "dense kappa 10" `Quick test_condest_dense_known_kappa;
          Alcotest.test_case "csr kappa 10" `Quick test_condest_csr_known_kappa;
          Alcotest.test_case "identity" `Quick test_condest_identity;
        ] );
      ( "registry",
        [
          Alcotest.test_case "prometheus round-trip" `Quick test_prometheus_round_trip;
          Alcotest.test_case "csv round-trip" `Quick test_csv_round_trip;
          Alcotest.test_case "sanitize names" `Quick test_sanitize_name;
          Alcotest.test_case "of_telemetry" `Quick test_registry_of_telemetry;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "gate",
        [
          Alcotest.test_case "identical passes" `Quick test_gate_passes_identical;
          Alcotest.test_case "improvement passes" `Quick test_gate_improvement_passes;
          Alcotest.test_case "regression fails" `Quick test_gate_fails_on_regression;
          Alcotest.test_case "within tolerance" `Quick test_gate_within_tolerance_passes;
          Alcotest.test_case "hard errors" `Quick test_gate_hard_errors;
          Alcotest.test_case "overrides" `Quick test_gate_overrides;
          Alcotest.test_case "absolute slack" `Quick test_gate_absolute_slack;
          Alcotest.test_case "retry floor" `Quick test_gate_retry_floor;
          Alcotest.test_case "exact counts" `Quick test_gate_exact_counts;
          Alcotest.test_case "speedup floor and factor watch" `Quick
            test_gate_speedup_floor;
        ] );
      ( "publish",
        [
          Alcotest.test_case "concurrent snapshot consistency" `Quick
            test_publish_snapshot_consistency;
          Alcotest.test_case "prometheus scrape round-trip" `Quick
            test_publish_prometheus_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "newton history" `Quick test_newton_history_recorded;
          Alcotest.test_case "diagonal residual" `Quick
            test_diagonal_residual_small_on_quickstart;
          Alcotest.test_case "health assessment" `Quick test_health_probe;
        ] );
    ]
