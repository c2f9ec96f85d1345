(* Tests for the telemetry subsystem: span nesting and ordering,
   counter/gauge/histogram accumulation, disabled-mode no-ops, the
   JSONL and Chrome trace exporters (parsed back with Telemetry.Json),
   fake-clock determinism, and the integration points — budgets on the
   shared clock and Resilience.Report's embedded telemetry summary. *)

(* ---------- JSON reader ---------- *)

module J = Telemetry.Json

let member_exn key j =
  match J.member key j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing JSON member %S" key)

let str_exn = function J.Str s -> s | _ -> Alcotest.fail "expected string"

(* ---------- helpers ---------- *)

(* Every test runs against its own fake clock and recorder; [finally]
   restores the process-global state so test order never matters. *)
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

(* ---------- core recorder ---------- *)

(* The summary node at [path] under [nodes]: a root, then a child per
   step. *)
let rec node_at nodes = function
  | [] -> None
  | name :: rest -> (
      match List.find_opt (fun n -> n.Telemetry.Summary.name = name) nodes with
      | Some n when rest = [] -> Some n
      | Some n -> node_at n.Telemetry.Summary.children rest
      | None -> None)

let test_span_nesting () =
  with_fake_telemetry @@ fun advance ->
  Telemetry.span "outer" (fun () ->
      advance 1.0;
      Telemetry.span "inner" (fun () -> advance 2.0);
      Telemetry.span "inner" (fun () -> advance 0.5));
  let s = capture () in
  let names =
    Array.to_list s.Telemetry.events
    |> List.map (function
         | Telemetry.Span_begin { name; _ } -> "B:" ^ name
         | Telemetry.Span_end { name; _ } -> "E:" ^ name)
  in
  Alcotest.(check (list string))
    "event order"
    [ "B:outer"; "B:inner"; "E:inner"; "B:inner"; "E:inner"; "E:outer" ]
    names;
  (match s.Telemetry.events.(1) with
  | Telemetry.Span_begin { parent; _ } ->
      Alcotest.(check int) "inner's parent is outer" 0 parent
  | _ -> Alcotest.fail "expected begin");
  let summary = Telemetry.Summary.of_snapshot s in
  (match node_at summary.Telemetry.Summary.roots [ "outer" ] with
  | Some node ->
      Alcotest.(check int) "outer calls" 1 node.Telemetry.Summary.calls;
      Alcotest.(check (float 1e-9)) "outer wall" 3.5 node.Telemetry.Summary.wall;
      Alcotest.(check (float 1e-9)) "outer self" 1.0 node.Telemetry.Summary.self
  | None -> Alcotest.fail "no outer node");
  match node_at summary.Telemetry.Summary.roots [ "outer"; "inner" ] with
  | Some node ->
      (* Same-name siblings aggregate into one node. *)
      Alcotest.(check int) "inner calls" 2 node.Telemetry.Summary.calls;
      Alcotest.(check (float 1e-9)) "inner wall" 2.5 node.Telemetry.Summary.wall
  | None -> Alcotest.fail "no inner node"

let test_counters_gauges_histograms () =
  with_fake_telemetry @@ fun _advance ->
  Telemetry.count "ticks";
  Telemetry.count ~by:41 "ticks";
  Telemetry.count "other";
  Telemetry.gauge "nnz" 10.0;
  Telemetry.gauge "nnz" 12.0;
  Telemetry.observe "res" 3.0;
  Telemetry.observe "res" 1.0;
  Telemetry.observe "res" 2.0;
  let s = capture () in
  Alcotest.(check (list (pair string int)))
    "counters sorted and accumulated"
    [ ("other", 1); ("ticks", 42) ]
    s.Telemetry.counters;
  Alcotest.(check (list (pair string (float 0.0))))
    "gauge keeps last value"
    [ ("nnz", 12.0) ]
    s.Telemetry.gauges;
  match s.Telemetry.histograms with
  | [ ("res", h) ] ->
      Alcotest.(check int) "count" 3 h.Telemetry.count;
      Alcotest.(check (float 0.0)) "sum" 6.0 h.Telemetry.sum;
      Alcotest.(check (float 0.0)) "min" 1.0 h.Telemetry.min;
      Alcotest.(check (float 0.0)) "max" 3.0 h.Telemetry.max
  | _ -> Alcotest.fail "expected one histogram"

let test_disabled_noop () =
  Telemetry.disable ();
  Alcotest.(check bool) "disabled" false (Telemetry.enabled ());
  Alcotest.(check int) "span passes value through" 7 (Telemetry.span "x" (fun () -> 7));
  Telemetry.count "ignored";
  Telemetry.gauge "ignored" 1.0;
  Telemetry.observe "ignored" 1.0;
  Alcotest.(check int) "mark is 0" 0 (Telemetry.mark ());
  Alcotest.(check bool) "snapshot is None" true (Telemetry.snapshot () = None)

let test_exception_safety () =
  with_fake_telemetry @@ fun advance ->
  (try
     Telemetry.span "boom" (fun () ->
         advance 1.0;
         failwith "inner failure")
   with Failure _ -> ());
  Telemetry.span "after" (fun () -> advance 1.0);
  let summary = Telemetry.Summary.of_snapshot (capture ()) in
  (match node_at summary.Telemetry.Summary.roots [ "boom" ] with
  | Some node -> Alcotest.(check (float 1e-9)) "boom closed at raise" 1.0 node.Telemetry.Summary.wall
  | None -> Alcotest.fail "raising span was not recorded");
  (* "after" must be a root alongside "boom": the raising span did not
     leak open and swallow its successor. *)
  let root_names =
    List.map (fun n -> n.Telemetry.Summary.name) summary.Telemetry.Summary.roots
    |> List.sort compare
  in
  Alcotest.(check (list string)) "both spans are roots" [ "after"; "boom" ] root_names

(* [span_app] records like [span], closes on a raise, and, with no
   recorder, costs its callback nothing: the hot loops use it to time a
   callback per evaluation. *)
let test_span_app () =
  (with_fake_telemetry @@ fun advance ->
   let sum =
     Telemetry.span_app "add"
       (fun a b ->
         advance 1.0;
         a + b)
       2 3
   in
   Alcotest.(check int) "passes the result through" 5 sum;
   (try Telemetry.span_app "raise" (fun () () -> failwith "inner") () ()
    with Failure _ -> ());
   let summary = Telemetry.Summary.of_snapshot (capture ()) in
   (match node_at summary.Telemetry.Summary.roots [ "add" ] with
   | Some node -> Alcotest.(check (float 1e-9)) "add timed" 1.0 node.Telemetry.Summary.wall
   | None -> Alcotest.fail "span_app was not recorded");
   let roots = List.map (fun n -> n.Telemetry.Summary.name) summary.Telemetry.Summary.roots in
   Alcotest.(check (list string)) "both spans closed" [ "add"; "raise" ] (List.sort compare roots));
  Telemetry.disable ();
  let r = Array.make 1 0.0 in
  let set (r : float array) v = r.(0) <- v in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Telemetry.span_app "set" set r 1.0
  done;
  let words = Gc.minor_words () -. before in
  if words > 10.0 then Alcotest.failf "span_app allocated %.0f words over 1000 calls" words

let test_fake_clock_determinism () =
  let run () =
    with_fake_telemetry @@ fun advance ->
    Telemetry.span "a" (fun () ->
        advance 0.25;
        Telemetry.span "b" (fun () -> advance 0.75));
    advance 1.0;
    let buf = Buffer.create 256 in
    Telemetry.Summary.add_json buf (Telemetry.Summary.of_snapshot (capture ()));
    Buffer.contents buf
  in
  let first = run () and second = run () in
  Alcotest.(check string) "byte-identical reruns" first second;
  let summary = J.parse first in
  Alcotest.(check (float 0.0)) "duration exact" 2.0
    (match member_exn "duration" summary with J.Num f -> f | _ -> nan)

let test_mark_and_windowed_snapshot () =
  with_fake_telemetry @@ fun advance ->
  Telemetry.span "solve" (fun () -> advance 1.0);
  let mark = Telemetry.mark () in
  Telemetry.span "solve" (fun () -> advance 3.0);
  let windowed =
    match Telemetry.snapshot ~since:mark () with
    | Some s -> s
    | None -> Alcotest.fail "enabled but no snapshot"
  in
  Alcotest.(check int) "only second solve captured" 2 (Array.length windowed.Telemetry.events);
  let summary = Telemetry.Summary.of_snapshot windowed in
  match node_at summary.Telemetry.Summary.roots [ "solve" ] with
  | Some node ->
      Alcotest.(check int) "calls" 1 node.Telemetry.Summary.calls;
      Alcotest.(check (float 1e-9)) "wall of second solve only" 3.0 node.Telemetry.Summary.wall
  | None -> Alcotest.fail "no solve node"

let test_open_spans_closed_in_snapshot () =
  with_fake_telemetry @@ fun advance ->
  let s =
    Telemetry.span "still-open" (fun () ->
        advance 2.0;
        capture ())
  in
  Alcotest.(check int) "begin + synthesized end" 2 (Array.length s.Telemetry.events);
  match s.Telemetry.events.(1) with
  | Telemetry.Span_end { wall; _ } ->
      Alcotest.(check (float 1e-9)) "closed at capture time" 2.0 wall
  | _ -> Alcotest.fail "expected synthesized end"

(* ---------- exporters ---------- *)

let with_temp_file f =
  let path = Filename.temp_file "telemetry_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let record_sample advance =
  Telemetry.span "newton" (fun () ->
      advance 1.0;
      Telemetry.span "line \"search\"\n" (fun () -> advance 0.5));
  Telemetry.count "iters";
  Telemetry.gauge "fill" 1.5;
  Telemetry.observe "residual" 1e-9;
  capture ()

let test_jsonl_roundtrip () =
  with_fake_telemetry @@ fun advance ->
  let s = record_sample advance in
  with_temp_file @@ fun path ->
  let oc = open_out path in
  Telemetry.Sink.write_jsonl oc s;
  close_out oc;
  let lines =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let parsed = List.map J.parse lines in
  let kind j = str_exn (member_exn "ev" j) in
  Alcotest.(check (list string))
    "line kinds in order"
    [ "begin"; "begin"; "end"; "end"; "counter"; "gauge"; "histogram"; "summary" ]
    (List.map kind parsed);
  let begins = List.filter (fun j -> kind j = "begin") parsed in
  Alcotest.(check (list string))
    "escaped name survives the round trip"
    [ "newton"; "line \"search\"\n" ]
    (List.map (fun j -> str_exn (member_exn "name" j)) begins)

let test_chrome_roundtrip () =
  with_fake_telemetry @@ fun advance ->
  let s = record_sample advance in
  with_temp_file @@ fun path ->
  let oc = open_out path in
  Telemetry.Sink.write_chrome oc s;
  close_out oc;
  let doc = J.parse (read_file path) in
  let events =
    match member_exn "traceEvents" doc with
    | J.Arr l -> l
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  let phase j = str_exn (member_exn "ph" j) in
  let count ph = List.length (List.filter (fun j -> phase j = ph) events) in
  (* process_name + thread_name, both emitted by the Merge-backed writer. *)
  Alcotest.(check int) "two metadata events" 2 (count "M");
  Alcotest.(check int) "begin/end balanced" (count "B") (count "E");
  Alcotest.(check int) "two spans" 2 (count "B");
  Alcotest.(check int) "counter + gauge samples" 2 (count "C");
  List.iter
    (fun j ->
      match J.member "ts" j with
      | Some (J.Num ts) ->
          Alcotest.(check bool) "timestamps are non-negative" true (ts >= 0.0)
      | Some _ -> Alcotest.fail "ts is not a number"
      | None -> Alcotest.(check string) "only metadata lacks ts" "M" (phase j))
    events

(* ---------- integration: shared clock and report embedding ---------- *)

let test_budget_fake_clock () =
  let source, advance = Telemetry.Clock.manual () in
  Telemetry.Clock.install source;
  Fun.protect ~finally:Telemetry.Clock.uninstall @@ fun () ->
  let budget = Resilience.Budget.make ~wall_seconds:5.0 () in
  Alcotest.(check bool) "fresh budget not exhausted" true
    (Resilience.Budget.exhausted budget = None);
  advance 6.0;
  match Resilience.Budget.exhausted budget with
  | Some (Resilience.Budget.Wall_clock { limit; elapsed }) ->
      Alcotest.(check (float 0.0)) "limit" 5.0 limit;
      Alcotest.(check (float 1e-9)) "elapsed from fake clock" 6.0 elapsed
  | _ -> Alcotest.fail "expected deterministic wall-clock exhaustion"

let test_report_embeds_telemetry () =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let { Circuits.mna; _ } =
    Circuits.rc_lowpass
      ~drive:(Circuit.Waveform.sine ~amplitude:1.0 ~freq:1e6 ())
      ()
  in
  let report = Circuit.Dcop.solve mna in
  Alcotest.(check bool) "dcop converged" true report.Circuit.Dcop.converged;
  let doc =
    J.parse (Resilience.Report.to_json_string report.Circuit.Dcop.resilience)
  in
  let telemetry = member_exn "telemetry" doc in
  let span_names =
    match member_exn "spans" telemetry with
    | J.Arr spans -> List.map (fun s -> str_exn (member_exn "name" s)) spans
    | _ -> Alcotest.fail "spans is not an array"
  in
  Alcotest.(check (list string)) "root span is the dcop solve" [ "dcop.solve" ] span_names;
  match member_exn "counters" telemetry with
  | J.Obj counters ->
      Alcotest.(check bool) "newton iterations counted" true
        (List.mem_assoc "newton.iterations" counters)
  | _ -> Alcotest.fail "counters is not an object"

let () =
  Alcotest.run "telemetry"
    [
      ( "core",
        [
          Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "counters, gauges, histograms" `Quick
            test_counters_gauges_histograms;
          Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "span_app" `Quick test_span_app;
          Alcotest.test_case "fake-clock determinism" `Quick test_fake_clock_determinism;
          Alcotest.test_case "mark + windowed snapshot" `Quick
            test_mark_and_windowed_snapshot;
          Alcotest.test_case "open spans closed at capture" `Quick
            test_open_spans_closed_in_snapshot;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "jsonl parses back" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "chrome trace parses back" `Quick test_chrome_roundtrip;
        ] );
      ( "integration",
        [
          Alcotest.test_case "budget on the fake clock" `Quick test_budget_fake_clock;
          Alcotest.test_case "report embeds telemetry" `Quick test_report_embeds_telemetry;
        ] );
    ]
