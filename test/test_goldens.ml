(* Byte-identity goldens for every JSON emitter whose output leaves the
   program: checkpoint lines, rfss.jobs/1 lines, resilience reports,
   telemetry summaries and trace sinks. Each literal was captured from the hand-rolled emitters
   these outputs used before the one JSON codec replaced them, so a
   passing run shows the consolidation changed no byte. The inputs are
   chosen to need every escape the old emitters shared (quote,
   backslash, newline, tab) and every non-finite float convention. *)

(* ---------- builders: hand-made inputs for every JSON emitter ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let with_temp_path f =
  let path = Filename.temp_file "rfss_golden" ".out" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* An error row: NaN metrics, an infinite residual, and a message that
   needs every common escape. *)
let checkpoint_record : Engine.Checkpoint.record =
  {
    key = "0123456789abcdef";
    label = "mixer fd=1e3";
    engine = "mpde";
    f_fast = 1e6;
    fd = 1e3;
    status = "error";
    converged = false;
    newton = 7;
    residual = Float.infinity;
    h1 = Float.nan;
    thd = Float.nan;
    waveform_hash = "";
    attempts = 2;
    wall_seconds = 0.25;
    message = "bad \"quote\" \\ back\nnew\ttab";
    stage = Some "gmres";
    backtrace = None;
    report = Some "{\"outcome\":\"converged\",\"x\":1.5e-3}";
  }

let checkpoint_file () =
  with_temp_path @@ fun path ->
  Engine.Checkpoint.append (Engine.Checkpoint.create path) checkpoint_record;
  read_file path

let report : Resilience.Report.t =
  {
    outcome = Resilience.Report.Failed "no \"luck\"";
    strategy = Some "newton";
    stages =
      [
        {
          name = "newton";
          status = `Failed "diverged\tat \\ 3";
          iterations = 4;
          wall_seconds = 0.0125;
        };
        { name = "gmin"; status = `Skipped; iterations = 0; wall_seconds = 0.0 };
      ];
    residual_trajectory = [| 1.0; Float.nan; 2.5e-7; Float.infinity |];
    residual_norm = Float.nan;
    newton_iterations = 4;
    linear_iterations = 12;
    wall_seconds = 0.5;
    telemetry = None;
    sections = [ ("diag\"s", "{\"k\":1}") ];
  }

let served_job () =
  match Serve.Protocol.parse_job "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\"}" with
  | Ok job -> job
  | Error e -> failwith (Serve.Protocol.error_message e)

let served_result : Engine.Result.t =
  {
    kind = Engine.Mpde;
    label = "rc \"served\"";
    converged = true;
    newton_iterations = 3;
    residual_norm = 1.5e-10;
    wall_seconds = 0.125;
    waveform = { times = [| 0.0; 5e-4 |]; values = [| 1.0; -0.25 |] };
    metrics = [ ("baseband_h1", 0.5); ("thd", Float.nan) ];
    report;
    health = Diagnostics.Health.of_report report;
    telemetry = None;
    mpde_solution = None;
  }

let protocol_lines () =
  [
    Serve.Protocol.accepted_line ~id:7 ~key:"0123456789abcdef" ~cache_hit:true;
    Serve.Protocol.accepted_line ~id:8 ~key:"fedcba9876543210" ~cache_hit:false;
    Serve.Protocol.error_line "unknown circuit \"x\"\n\\ try rc";
    Serve.Protocol.result_line ~key:"0123456789abcdef" ~warm_started:false
      (served_job ()) served_result;
  ]

let empty_histogram : Telemetry.histogram =
  {
    count = 0;
    sum = 0.0;
    min = Float.infinity;
    max = Float.neg_infinity;
    buckets = Array.make Telemetry.bucket_count 0;
  }

let summary : Telemetry.Summary.t =
  {
    duration = 0.5;
    roots =
      [
        {
          name = "solve \"outer\"";
          calls = 2;
          wall = 0.25;
          cpu = 0.2;
          self = 0.05;
          children =
            [
              {
                name = "inner\\x";
                calls = 1;
                wall = 0.2;
                cpu = 0.2;
                self = 0.2;
                children = [];
              };
            ];
        };
      ];
    counters = [ ("newton.\"iters\"", 5) ];
    gauges = [ ("res", Float.nan); ("ok", 1.25) ];
    histograms = [ ("h", empty_histogram) ];
  }

let summary_json () =
  let buf = Buffer.create 256 in
  Telemetry.Summary.add_json buf summary;
  Buffer.contents buf

let snapshot : Telemetry.snapshot =
  {
    events =
      [|
        Span_begin { id = 1; parent = 0; name = "a\"b"; wall = 0.5; cpu = 0.25 };
        Span_end { id = 1; name = "a\"b"; wall = 1.5; cpu = Float.nan };
      |];
    duration = 2.0;
    counters = [ ("c\\1", 4) ];
    gauges = [ ("g", Float.infinity) ];
    histograms = [ ("h", empty_histogram) ];
  }

let sink_output write =
  with_temp_path @@ fun path ->
  let oc = open_out_bin path in
  write oc snapshot;
  close_out oc;
  read_file path

let jsonl_trace () = sink_output Telemetry.Sink.write_jsonl

let chrome_trace () = sink_output Telemetry.Sink.write_chrome

(* ---------- literals ---------- *)

let golden_checkpoint =
  "{\"v\":1,\"key\":\"0123456789abcdef\",\"label\":\"mixer fd=1e3\",\"engine\":\"mpde\",\"f_fast\":1000000,\"fd\":1000,\"status\":\"error\",\"converged\":false,\"newton\":7,\"residual\":\"inf\",\"h1\":\"nan\",\"thd\":\"nan\",\"waveform_hash\":\"\",\"attempts\":2,\"wall_seconds\":0.25,\"message\":\"bad \\\"quote\\\" \\\\ back\\nnew\\ttab\",\"stage\":\"gmres\",\"report\":\"{\\\"outcome\\\":\\\"converged\\\",\\\"x\\\":1.5e-3}\",\"digest\":\"6fa7a3b6e7f76e6c\"}\n"

let golden_protocol =
  [
    "{\"v\":\"rfss.jobs/1\",\"event\":\"accepted\",\"id\":7,\"key\":\"0123456789abcdef\",\"cache\":\"hit\"}";
    "{\"v\":\"rfss.jobs/1\",\"event\":\"accepted\",\"id\":8,\"key\":\"fedcba9876543210\",\"cache\":\"miss\"}";
    "{\"v\":\"rfss.jobs/1\",\"event\":\"error\",\"message\":\"unknown circuit \\\"x\\\"\\n\\\\ try rc\"}";
    "{\"v\":\"rfss.jobs/1\",\"event\":\"result\",\"key\":\"0123456789abcdef\",\"label\":\"rc \\\"served\\\"\",\"engine\":\"mpde\",\"converged\":true,\"newton\":3,\"residual\":1.5e-10,\"wall_seconds\":0.125,\"warm_started\":false,\"metrics\":{\"baseband_h1\":0.5,\"thd\":\"nan\"},\"waveform_csv\":\"t,v(out)\\n0.000000000e+00,1.000000e+00\\n5.000000000e-04,-2.500000e-01\\n\"}";
  ]

let golden_report =
  "{\"outcome\":\"failed: no \\\"luck\\\"\",\"strategy\":\"newton\",\"newton_iterations\":4,\"linear_iterations\":12,\"residual_norm\":\"nan\",\"wall_seconds\":0.500,\"stages\":[{\"name\":\"newton\",\"status\":\"failed\",\"error\":\"diverged\\tat \\\\ 3\",\"iterations\":4,\"wall_seconds\":0.013},{\"name\":\"gmin\",\"status\":\"skipped\",\"iterations\":0,\"wall_seconds\":0.000}],\"residual_trajectory\":[1.000000e+00,\"nan\",2.500000e-07,\"inf\"],\"diag\\\"s\":{\"k\":1}}"

let golden_summary =
  "{\"duration\":5.000000000e-01,\"spans\":[{\"name\":\"solve \\\"outer\\\"\",\"calls\":2,\"wall\":2.500000000e-01,\"self\":5.000000000e-02,\"cpu\":2.000000000e-01,\"children\":[{\"name\":\"inner\\\\x\",\"calls\":1,\"wall\":2.000000000e-01,\"self\":2.000000000e-01,\"cpu\":2.000000000e-01,\"children\":[]}]}],\"counters\":{\"newton.\\\"iters\\\"\":5},\"gauges\":{\"res\":\"nan\",\"ok\":1.250000000e+00},\"histograms\":{\"h\":{\"count\":0,\"sum\":0.000000000e+00,\"min\":\"inf\",\"max\":\"-inf\",\"p50\":\"nan\",\"p90\":\"nan\",\"p99\":\"nan\"}}}"

let golden_jsonl =
  "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"name\":\"a\\\"b\",\"t\":5.000000000e-01,\"cpu\":2.500000000e-01}\n{\"ev\":\"end\",\"id\":1,\"name\":\"a\\\"b\",\"t\":1.500000000e+00,\"cpu\":\"nan\"}\n{\"ev\":\"counter\",\"name\":\"c\\\\1\",\"total\":4}\n{\"ev\":\"gauge\",\"name\":\"g\",\"value\":\"inf\"}\n{\"ev\":\"histogram\",\"name\":\"h\",\"count\":0,\"sum\":0.000000000e+00,\"min\":\"inf\",\"max\":\"-inf\",\"p50\":\"nan\",\"p90\":\"nan\",\"p99\":\"nan\"}\n{\"ev\":\"summary\",\"duration\":2.000000000e+00}\n"

let golden_chrome =
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"rfss\"}},\n{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}},\n{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"cat\":\"solve\",\"name\":\"a\\\"b\",\"ts\":5.000000000e+05},\n{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"cat\":\"solve\",\"name\":\"a\\\"b\",\"ts\":1.500000000e+06},\n{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"c\\\\1\",\"ts\":2.000000000e+06,\"args\":{\"value\":4}},\n{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"g\",\"ts\":2.000000000e+06,\"args\":{\"value\":\"inf\"}}\n]}\n"

(* ---------- tests ---------- *)

let check_bytes name expected actual = Alcotest.(check string) name expected actual

let test_checkpoint () =
  check_bytes "checkpoint line" golden_checkpoint (checkpoint_file ())

let test_protocol () =
  List.iter2 (check_bytes "protocol line") golden_protocol (protocol_lines ())

let test_report () =
  check_bytes "report" golden_report (Resilience.Report.to_json_string report)

let test_summary () = check_bytes "summary" golden_summary (summary_json ())

let test_sinks () =
  check_bytes "jsonl" golden_jsonl (jsonl_trace ());
  check_bytes "chrome" golden_chrome (chrome_trace ())

let () =
  Alcotest.run "goldens"
    [
      ( "golden",
        [
          Alcotest.test_case "checkpoint line" `Quick test_checkpoint;
          Alcotest.test_case "protocol lines" `Quick test_protocol;
          Alcotest.test_case "report json" `Quick test_report;
          Alcotest.test_case "summary json" `Quick test_summary;
          Alcotest.test_case "trace sinks" `Quick test_sinks;
        ] );
    ]
