(* Tests for the sweep-scale observability layer: the log-bucketed
   histogram quantiles, cross-recorder histogram merging, Prometheus
   exposition of real histogram families (HELP/TYPE on every family,
   cumulative buckets), the cross-domain Chrome trace merge (JSON
   escaping, lane metadata, byte-identical reruns on the fake clock),
   the Sweep per-job trace capture on 1 and 4 domains, and a smoke test
   of the Runtime_events GC consumer. *)

module D = Diagnostics
module J = Telemetry.Json

(* ---------- helpers ---------- *)

let with_fake_telemetry f =
  let source, advance = Telemetry.Clock.manual () in
  Telemetry.Clock.install source;
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.Clock.uninstall ())
    (fun () -> f advance)

let capture () =
  match Telemetry.snapshot () with
  | Some s -> s
  | None -> Alcotest.fail "telemetry unexpectedly disabled"

(* Build a histogram by observing [values] on a throwaway recorder. *)
let hist_of values =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  List.iter (fun v -> Telemetry.observe "h" v) values;
  match (capture ()).Telemetry.histograms with
  | [ ("h", h) ] -> h
  | _ -> Alcotest.fail "expected exactly one histogram"

let with_temp_file f =
  let path = Filename.temp_file "observability_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------- bucket layout and quantiles ---------- *)

let test_bucket_layout () =
  let n = Telemetry.bucket_count in
  Alcotest.(check bool) "at least a few buckets" true (n > 10);
  (* Upper bounds strictly increase and end at +Inf. *)
  for i = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "le monotone at %d" i)
      true
      (Telemetry.bucket_le i > Telemetry.bucket_le (i - 1))
  done;
  Alcotest.(check bool) "last bound is +Inf" true
    (Telemetry.bucket_le (n - 1) = infinity);
  (* Every value lands in the bucket whose bounds contain it. *)
  let probe =
    [ 0.0; -1.0; nan; 1e-12; 3.7e-9; 1e-6; 0.00042; 0.3; 1.0; 42.0; 999.0; 1e9 ]
  in
  List.iter
    (fun v ->
      let i = Telemetry.bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "index of %g in range" v)
        true
        (i >= 0 && i < n);
      if Float.is_finite v && v > 0.0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "%g <= le(%d)" v i)
          true
          (v <= Telemetry.bucket_le i);
        if i > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "%g > le(%d - 1)" v i)
            true
            (v > Telemetry.bucket_le (i - 1) || i = Telemetry.bucket_index v)
      end)
    probe

let test_quantiles () =
  (* All-identical observations: quantiles clamp to the exact value. *)
  let h = hist_of (List.init 100 (fun _ -> 1.0)) in
  Alcotest.(check (float 0.0)) "p50 of constant" 1.0 (Telemetry.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p99 of constant" 1.0 (Telemetry.quantile h 0.99);
  (* 1..100 ms: the p99 estimate must sit near the top decile and the
     quantiles must be ordered. *)
  let h = hist_of (List.init 100 (fun k -> float_of_int (k + 1) *. 1e-3)) in
  let p50 = Telemetry.quantile h 0.50
  and p90 = Telemetry.quantile h 0.90
  and p99 = Telemetry.quantile h 0.99 in
  Alcotest.(check bool) "ordered" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.4f within a bucket of exact 0.050" p50)
    true
    (p50 > 0.020 && p50 < 0.110);
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.4f within a bucket of exact 0.099" p99)
    true
    (p99 > 0.045 && p99 <= 0.1);
  Alcotest.(check bool) "clamped to max" true (p99 <= h.Telemetry.max);
  (* Empty histogram: NaN, the caller's guard. *)
  let empty = { h with Telemetry.count = 0 } in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Telemetry.quantile empty 0.5))

let test_merge_histogram () =
  let a = [ 1.0; 2.0; 3.0 ] and b = [ 0.5; 4.0; 8.0; 16.0 ] in
  let ha = hist_of a and hab = hist_of (a @ b) in
  (* Observing b on top of a merged-in a must equal observing a @ b. *)
  Telemetry.enable ();
  let merged =
    Fun.protect ~finally:Telemetry.disable @@ fun () ->
    Telemetry.merge_histogram "h" ha;
    List.iter (fun v -> Telemetry.observe "h" v) b;
    match (capture ()).Telemetry.histograms with
    | [ ("h", h) ] -> h
    | _ -> Alcotest.fail "expected one merged histogram"
  in
  Alcotest.(check int) "count" hab.Telemetry.count merged.Telemetry.count;
  Alcotest.(check (float 0.0)) "sum" hab.Telemetry.sum merged.Telemetry.sum;
  Alcotest.(check (float 0.0)) "min" hab.Telemetry.min merged.Telemetry.min;
  Alcotest.(check (float 0.0)) "max" hab.Telemetry.max merged.Telemetry.max;
  Alcotest.(check (array int)) "buckets" hab.Telemetry.buckets
    merged.Telemetry.buckets

(* ---------- Prometheus histogram exposition ---------- *)

let test_prometheus_histograms () =
  let reg = D.Registry.create () in
  D.Registry.gauge reg "plain.gauge" 2.0;
  D.Registry.counter reg "plain.counter" 5.0;
  D.Registry.histogram reg ~help:"solve residuals"
    "newton.residual" (hist_of [ 1e-9; 1e-6; 1e-6; 0.5 ]);
  let page = D.Registry.to_prometheus reg in
  (* Every family carries # HELP and # TYPE — including the generated
     fallback for families registered without help text. *)
  let lines = String.split_on_char '\n' page in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  List.iter
    (fun family ->
      Alcotest.(check bool) ("HELP for " ^ family) true
        (has ("# HELP " ^ family));
      Alcotest.(check bool) ("TYPE for " ^ family) true
        (has ("# TYPE " ^ family)))
    [ "rfss_plain_gauge"; "rfss_plain_counter_total"; "rfss_newton_residual" ];
  Alcotest.(check bool) "histogram TYPE" true
    (has "# TYPE rfss_newton_residual histogram");
  (* The parser round-trips the page; cumulative buckets end at +Inf
     with the total count. *)
  let parsed = D.Registry.parse_prometheus page in
  let buckets =
    List.filter (fun (n, _, _) -> n = "rfss_newton_residual_bucket") parsed
  in
  Alcotest.(check int) "one series per bucket" Telemetry.bucket_count
    (List.length buckets);
  let values = List.map (fun (_, _, v) -> v) buckets in
  List.iteri
    (fun i v ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "cumulative at %d" i)
          true
          (v >= List.nth values (i - 1)))
    values;
  let inf_bucket =
    List.find_opt
      (fun (_, labels, _) -> List.assoc_opt "le" labels = Some "+Inf")
      buckets
  in
  (match inf_bucket with
  | Some (_, _, v) -> Alcotest.(check (float 0.0)) "+Inf bucket = count" 4.0 v
  | None -> Alcotest.fail "no le=\"+Inf\" bucket");
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) parsed with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "missing %s in:\n%s" name page
  in
  Alcotest.(check (float 0.0)) "_count" 4.0 (find "rfss_newton_residual_count");
  Alcotest.(check (float 1e-12)) "_sum" (2e-6 +. 1e-9 +. 0.5)
    (find "rfss_newton_residual_sum")

let test_of_telemetry_histogram_exposition () =
  (* End to end: observe -> snapshot -> registry -> Prometheus page with
     real bucket series plus min/max sibling gauges. *)
  Telemetry.enable ();
  let snap =
    Fun.protect ~finally:Telemetry.disable @@ fun () ->
    Telemetry.observe "gc.pause" 1e-4;
    Telemetry.observe "gc.pause" 2e-3;
    capture ()
  in
  let page = D.Registry.to_prometheus (D.Registry.of_telemetry snap) in
  let parsed = D.Registry.parse_prometheus page in
  let names = List.map (fun (n, _, _) -> n) parsed in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("page has " ^ n) true (List.mem n names))
    [
      "rfss_gc_pause_bucket";
      "rfss_gc_pause_sum";
      "rfss_gc_pause_count";
      "rfss_gc_pause_min";
      "rfss_gc_pause_max";
    ]

(* ---------- cross-domain Chrome trace merge ---------- *)

(* Two recorders' worth of events with hostile names, merged into one
   document: the JSON must parse strictly, every lane must be named,
   and the escaped names must survive. *)
let test_merge_escaping_and_metadata () =
  let nasty = "quote \" slash \\ newline \n tab \t" in
  let snap_a, snap_b =
    with_fake_telemetry @@ fun advance ->
    Telemetry.span nasty (fun () -> advance 1.0);
    Telemetry.count "iters";
    let a = capture () in
    let mark = Telemetry.mark () in
    Telemetry.span "plain" (fun () -> advance 0.5);
    Telemetry.gauge "fill" 1.5;
    let b =
      match Telemetry.snapshot ~since:mark () with
      | Some s -> s
      | None -> Alcotest.fail "windowed snapshot missing"
    in
    (a, b)
  in
  let parts =
    [
      {
        Telemetry.Merge.pid = 7;
        tid = 1;
        thread_name = "domain-0";
        label = Some "job \"zero\"";
        base = 0.0;
        snapshot = snap_a;
      };
      {
        Telemetry.Merge.pid = 7;
        tid = 2;
        thread_name = "domain-1";
        label = None;
        base = 1.0;
        snapshot = snap_b;
      };
    ]
  in
  with_temp_file @@ fun path ->
  let oc = open_out path in
  Telemetry.Merge.write_chrome ~extra:[ ("rfss", "{\"schema\":\"test/1\"}") ]
    oc parts;
  close_out oc;
  let doc = J.parse (read_file path) in
  let events =
    match J.path [ "traceEvents" ] doc with
    | Some (J.Arr l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let str_field k j =
    match J.path [ k ] j with Some (J.Str s) -> Some s | _ -> None
  in
  let num_field k j =
    match J.path [ k ] j with Some (J.Num n) -> Some n | _ -> None
  in
  let phases = List.filter_map (str_field "ph") events in
  (* One process_name + two thread_name metadata records. *)
  Alcotest.(check int) "metadata events" 3
    (List.length (List.filter (( = ) "M") phases));
  let thread_names =
    List.filter_map
      (fun j ->
        if str_field "ph" j = Some "M" && str_field "name" j = Some "thread_name"
        then J.path [ "args"; "name" ] j
        else None)
      events
  in
  Alcotest.(check bool) "both lanes named" true
    (List.mem (J.Str "domain-0") thread_names
    && List.mem (J.Str "domain-1") thread_names);
  (* The hostile span name survives escaping; the label became a
     thread-scoped instant. *)
  Alcotest.(check bool) "nasty name survives" true
    (List.exists (fun j -> str_field "name" j = Some nasty) events);
  Alcotest.(check bool) "job instant present" true
    (List.exists
       (fun j ->
         str_field "ph" j = Some "i" && str_field "name" j = Some "job \"zero\"")
       events);
  (* Non-metadata events all carry non-negative ts; part B is re-based
     1 s after part A. *)
  List.iter
    (fun j ->
      if str_field "ph" j <> Some "M" then
        match num_field "ts" j with
        | Some ts ->
            Alcotest.(check bool) "ts non-negative" true (ts >= 0.0)
        | None -> Alcotest.fail "non-metadata event without ts")
    events;
  let plain_begin =
    List.find_opt
      (fun j -> str_field "ph" j = Some "B" && str_field "name" j = Some "plain")
      events
  in
  (match plain_begin with
  | Some j ->
      (* snap_b's window opened 1.0s into recorder time, plus base 1.0
         after part A: 2.0s = 2e6 us on the merged axis. *)
      Alcotest.(check (option (float 1.0))) "re-based onto one axis"
        (Some 2e6) (num_field "ts" j)
  | None -> Alcotest.fail "no begin event for 'plain'");
  (* The extra key rides along at the top level. *)
  match J.path [ "rfss"; "schema" ] doc with
  | Some (J.Str "test/1") -> ()
  | _ -> Alcotest.fail "extra rfss key missing"

(* ---------- sweep per-job traces across domains ---------- *)

let sweep_jobs () =
  let mk fd =
    let label = Printf.sprintf "rc-fd%.0f" fd in
    let problem =
      Engine.Problem.make ~label ~output:"out" ~f_fast:1e6 ~fd (fun () ->
          Circuits.rc_lowpass
            ~drive:
              (Circuit.Waveform.sum
                 (Circuit.Waveform.sine ~amplitude:1.0 ~freq:1e6 ())
                 (Circuit.Waveform.sine ~amplitude:1.0 ~freq:(1e6 +. fd) ()))
            ())
    in
    Engine.Sweep.job
      ~options:{ Engine.Options.default with n1 = 12; n2 = 8 }
      ~kind:Engine.Mpde problem
  in
  Array.init 8 (fun k -> mk (1e3 *. float_of_int (k + 1)))

(* Run a traced sweep on the fake clock and render the merged trace to
   a string, exactly the way [rfss sweep --trace] does. *)
let merged_trace_string ~domains =
  let source, _advance = Telemetry.Clock.manual () in
  Telemetry.Clock.install source;
  Fun.protect ~finally:Telemetry.Clock.uninstall @@ fun () ->
  let outcomes =
    Engine.Sweep.run ~domains ~per_job_trace:true (sweep_jobs ())
  in
  let parts =
    Array.to_list outcomes
    |> List.filter_map (fun (o : Engine.Sweep.outcome) ->
           Option.map
             (fun (base, snapshot) ->
               {
                 Telemetry.Merge.pid = 4242;
                 tid = o.Engine.Sweep.worker + 1;
                 thread_name =
                   Printf.sprintf "domain-%d" o.Engine.Sweep.worker;
                 label = Some o.Engine.Sweep.job.Engine.Sweep.label;
                 base;
                 snapshot;
               })
             o.Engine.Sweep.trace)
  in
  let text =
    with_temp_file @@ fun path ->
    let oc = open_out path in
    Telemetry.Merge.write_chrome oc parts;
    close_out oc;
    read_file path
  in
  (text, outcomes)

let span_begins (o : Engine.Sweep.outcome) =
  match o.Engine.Sweep.trace with
  | None -> 0
  | Some (_, s) ->
      Array.fold_left
        (fun acc ev ->
          match ev with Telemetry.Span_begin _ -> acc + 1 | _ -> acc)
        0 s.Telemetry.events

let test_sweep_traced_deterministic () =
  let first, outcomes = merged_trace_string ~domains:4 in
  let second, _ = merged_trace_string ~domains:4 in
  Alcotest.(check string) "byte-identical across runs" first second;
  Alcotest.(check bool) "parses strictly" true
    (match J.parse first with J.Obj _ -> true | _ -> false);
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      Alcotest.(check bool)
        (o.Engine.Sweep.job.Engine.Sweep.label ^ " converged")
        true
        (match o.Engine.Sweep.result with Ok _ -> true | Error _ -> false);
      Alcotest.(check bool) "has a trace" true (o.Engine.Sweep.trace <> None))
    outcomes;
  (* Static assignment: worker k owns jobs k, k+4, and all four lanes
     show up in the merged document. *)
  Array.iteri
    (fun i (o : Engine.Sweep.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "job %d on its static worker" i)
        (i mod 4) o.Engine.Sweep.worker)
    outcomes;
  let doc = J.parse first in
  let events =
    match J.path [ "traceEvents" ] doc with
    | Some (J.Arr l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let tids =
    List.filter_map
      (fun j ->
        match (J.path [ "ph" ] j, J.path [ "tid" ] j) with
        | Some (J.Str "M"), _ -> None
        | _, Some (J.Num t) -> Some (int_of_float t)
        | _ -> None)
      events
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "one tid per domain" [ 1; 2; 3; 4 ] tids

let test_sweep_trace_span_conservation () =
  (* The same jobs traced serially and on 4 domains record the same
     total number of spans — parallelism relocates work, it must not
     lose or invent any. *)
  let _, serial = merged_trace_string ~domains:1 in
  let _, parallel = merged_trace_string ~domains:4 in
  let total a = Array.fold_left (fun acc o -> acc + span_begins o) 0 a in
  Alcotest.(check bool) "spans recorded at all" true (total serial > 0);
  Alcotest.(check int) "per-domain spans sum to the serial count"
    (total serial) (total parallel);
  (* Serial execution keeps everything on worker 0. *)
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      Alcotest.(check int) "serial worker" 0 o.Engine.Sweep.worker)
    serial

(* ---------- Runtime_events consumer ---------- *)

let test_runtime_events_smoke () =
  match Telemetry.Runtime.start () with
  | None ->
      (* The runtime refused a ring — degrade exactly like production. *)
      ()
  | Some t ->
      Fun.protect ~finally:(fun () -> Telemetry.Runtime.stop t) @@ fun () ->
      (* Force minor collections so EV_MINOR spans definitely land. *)
      for _ = 1 to 3 do
        ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> (i, i))));
        Gc.minor ()
      done;
      Gc.full_major ();
      Telemetry.Runtime.poll t;
      let s = Telemetry.Runtime.stats t in
      Alcotest.(check bool) "saw minor collections" true
        (s.Telemetry.Runtime.minor_collections > 0);
      Alcotest.(check bool) "pause samples match the counter" true
        (s.Telemetry.Runtime.minor_pause.Telemetry.count
        = s.Telemetry.Runtime.minor_collections);
      Alcotest.(check bool) "at least one ring" true
        (s.Telemetry.Runtime.domains_seen >= 1);
      (* Each [Array.init] of young pairs forced a minor collection. *)
      Alcotest.(check bool) "forced minors counted" true
        (s.Telemetry.Runtime.forced_minors >= 3);
      Alcotest.(check bool) "pauses are positive and finite" true
        (s.Telemetry.Runtime.minor_pause.Telemetry.count = 0
        || Float.is_finite s.Telemetry.Runtime.minor_pause.Telemetry.sum
           && s.Telemetry.Runtime.minor_pause.Telemetry.sum >= 0.0);
      (* Folding into the recorder surfaces the histograms + gauges. *)
      Telemetry.enable ();
      let snap =
        Fun.protect ~finally:Telemetry.disable @@ fun () ->
        Telemetry.Runtime.observe_into_telemetry t;
        capture ()
      in
      Alcotest.(check bool) "gc.minor_pause_seconds histogram" true
        (List.mem_assoc "gc.minor_pause_seconds" snap.Telemetry.histograms);
      Alcotest.(check bool) "gc.minor_collections gauge" true
        (List.mem_assoc "gc.minor_collections" snap.Telemetry.gauges);
      Alcotest.(check bool) "gc.minor_pause_p99 gauge when samples exist" true
        (List.mem_assoc "gc.minor_pause_p99" snap.Telemetry.gauges)

(* ---------- run ---------- *)

(* No solve path builds an array of more than 256 elements from a young
   value: OCaml 5.1 forces a stop-the-world minor collection for each
   ([caml_make_vect], EV_C_FORCE_MINOR_MAKE_VECT). Counted around a
   warm 40x30 balanced-mixer MPDE run, a d = 100 shooting run and the
   harmonics of a 7 565-sample waveform. *)
let test_no_forced_minors () =
  let f_lo = 450e6 and fd = 15e3 in
  let nodes = Circuits.balanced_mixer_nodes in
  let mixer =
    Engine.Problem.make ~label:"balanced-mixer" ~output:nodes.Circuits.out_plus
      ~output_b:nodes.Circuits.out_minus ~f_fast:f_lo ~fd (fun () ->
        let rf_signal, _ = Circuits.paper_rf_bitstream ~f_lo ~fd () in
        Circuits.balanced_mixer ~f_lo ~rf_signal ())
  in
  let mpde = Engine.make ~options:{ Engine.Options.default with n1 = 40; n2 = 30 } Engine.Mpde in
  let shooting =
    let f_lo = 1e6 in
    let fd = f_lo /. 100.0 in
    Engine.Problem.make ~label:"mixer d=100" ~period:Engine.Problem.Difference_tone ~output:"out"
      ~f_fast:f_lo ~fd (fun () ->
        Circuits.unbalanced_mixer ~f_lo
          ~rf_signal:(Circuit.Waveform.cosine ~amplitude:1.0 ~freq:(f_lo +. fd) ())
          ~rf_amplitude:0.05 ())
  in
  let shooter =
    Engine.make ~options:{ Engine.Options.default with steps_per_period = 1000 } Engine.Shooting
  in
  let samples = Array.init 7565 (fun k -> sin (0.01 *. float_of_int k)) in
  ignore (Engine.run mixer mpde);
  match Telemetry.Runtime.start () with
  | None -> ()
  | Some t ->
      Fun.protect ~finally:(fun () -> Telemetry.Runtime.stop t) @@ fun () ->
      let forced what f =
        Telemetry.Runtime.poll t;
        let before = (Telemetry.Runtime.stats t).Telemetry.Runtime.forced_minors in
        ignore (Sys.opaque_identity (f ()));
        Telemetry.Runtime.poll t;
        let n = (Telemetry.Runtime.stats t).Telemetry.Runtime.forced_minors - before in
        Alcotest.(check int) (what ^ ": forced minor collections") 0 n
      in
      forced "warm mixer 40x30" (fun () -> Engine.run mixer mpde);
      forced "shooting d=100" (fun () -> Engine.run shooting shooter);
      forced "real_harmonics 7565" (fun () -> Numeric.Fft.real_harmonics samples)

let () =
  Alcotest.run "observability"
    [
      ( "histograms",
        [
          Alcotest.test_case "bucket layout" `Quick test_bucket_layout;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "merge equivalence" `Quick test_merge_histogram;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "histogram exposition round-trip" `Quick
            test_prometheus_histograms;
          Alcotest.test_case "of_telemetry exposition" `Quick
            test_of_telemetry_histogram_exposition;
        ] );
      ( "merge",
        [
          Alcotest.test_case "escaping + lane metadata" `Quick
            test_merge_escaping_and_metadata;
        ] );
      ( "sweep-traces",
        [
          Alcotest.test_case "4-domain merged trace deterministic" `Quick
            test_sweep_traced_deterministic;
          Alcotest.test_case "span conservation serial vs parallel" `Quick
            test_sweep_trace_span_conservation;
        ] );
      ( "runtime-events",
        [
          Alcotest.test_case "no forced minor collections" `Quick test_no_forced_minors;
          Alcotest.test_case "gc consumer smoke" `Quick
            test_runtime_events_smoke;
        ] );
    ]
