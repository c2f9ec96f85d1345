(* Tests for the live introspection plane (lib/observe): listen-address
   parsing, the HTTP/1.0 subset, event-ring gap detection, snapshot
   atomicity under concurrent publishers, zero perturbation of sweep
   results when a listener is armed, and an end-to-end scrape of a real
   two-domain sweep over a Unix socket plus a TCP ephemeral-port
   server. *)

module O = Observe
module P = Observe.Publish
module J = Telemetry.Json
module W = Circuit.Waveform

(* Every test that arms the global publish hub runs inside this wrapper
   so a failure cannot leak an armed state (or a shrunken ring) into
   the other suites linked in this binary. *)
let with_publish f =
  P.reset ();
  P.arm ();
  Fun.protect
    ~finally:(fun () ->
      P.disarm ();
      P.set_ring_capacity 4096;
      P.reset ())
    f

let temp_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rfss_%s_%d.sock" tag (Unix.getpid ()))

(* ---------- Addr ---------- *)

let test_addr_parse () =
  let ok spec expect =
    match O.Addr.parse spec with
    | Ok a -> Alcotest.(check bool) (spec ^ " parses as expected") true (a = expect)
    | Error e -> Alcotest.failf "%s should parse: %s" spec e
  in
  ok "unix:/tmp/x.sock" (O.Addr.Unix_socket "/tmp/x.sock");
  ok "/tmp/x.sock" (O.Addr.Unix_socket "/tmp/x.sock");
  ok "127.0.0.1:9100" (O.Addr.Tcp ("127.0.0.1", 9100));
  ok "localhost:0" (O.Addr.Tcp ("localhost", 0));
  ok ":8080" (O.Addr.Tcp ("127.0.0.1", 8080));
  let bad spec =
    match O.Addr.parse spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" spec
  in
  bad "";
  bad "9100";
  bad "host:notaport";
  bad "host:70000";
  (* to_string round-trips through parse. *)
  List.iter
    (fun a ->
      match O.Addr.parse (O.Addr.to_string a) with
      | Ok b -> Alcotest.(check bool) "round trip" true (a = b)
      | Error e -> Alcotest.fail e)
    [ O.Addr.Unix_socket "/tmp/y.sock"; O.Addr.Tcp ("127.0.0.1", 9100) ]

(* ---------- Http ---------- *)

let test_http_request () =
  Alcotest.(check bool)
    "incomplete header has no end" true
    (O.Http.header_end "GET / HTTP/1.0\r\nHost: x\r\n" = None);
  let raw = "GET /events?since=42&x=1 HTTP/1.0\r\nHost: Foo\r\nX-Thing: Bar\r\n\r\n" in
  (match O.Http.header_end raw with
  | Some n -> Alcotest.(check int) "header end offset" (String.length raw) n
  | None -> Alcotest.fail "complete header not detected");
  match O.Http.parse_request raw with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check string) "method" "GET" r.O.Http.meth;
      Alcotest.(check string) "path" "/events" r.O.Http.path;
      Alcotest.(check bool)
        "query int" true
        (O.Http.query_int r "since" = Some 42);
      Alcotest.(check bool)
        "missing query param" true
        (O.Http.query_int r "nope" = None);
      Alcotest.(check bool)
        "headers lowercased" true
        (List.assoc_opt "x-thing" r.O.Http.headers = Some "Bar")

let test_http_response_round_trip () =
  let raw = O.Http.response ~status:404 ~content_type:"application/json" "{}" in
  (match O.Http.parse_response raw with
  | Error e -> Alcotest.fail e
  | Ok (status, headers, body) ->
      Alcotest.(check int) "status" 404 status;
      Alcotest.(check string) "body" "{}" body;
      Alcotest.(check bool)
        "content-length" true
        (List.assoc_opt "content-length" headers = Some "2");
      Alcotest.(check bool)
        "close-delimited" true
        (List.assoc_opt "connection" headers = Some "close"));
  (* A stream header has no Content-Length: the body is everything
     until the server closes the connection. *)
  let raw = O.Http.stream_header () ^ "line1\nline2\n" in
  match O.Http.parse_response raw with
  | Error e -> Alcotest.fail e
  | Ok (status, headers, body) ->
      Alcotest.(check int) "stream status" 200 status;
      Alcotest.(check string) "stream body" "line1\nline2\n" body;
      Alcotest.(check bool)
        "no content-length on stream" true
        (List.assoc_opt "content-length" headers = None)

(* POST framing: Content-Length-bounded bodies with a hard cap, and
   405 (with an Allow header) for unsupported methods on known paths. *)
let test_http_framed_and_405 () =
  let post body =
    Printf.sprintf "POST /jobs HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  (match O.Http.parse_framed (post "{\"v\":1}") with
  | O.Http.Complete (r, body) ->
      Alcotest.(check string) "framed method" "POST" r.O.Http.meth;
      Alcotest.(check string) "framed body" "{\"v\":1}" body
  | _ -> Alcotest.fail "complete POST not framed");
  (* Body shorter than Content-Length: keep reading. *)
  (match
     O.Http.parse_framed "POST /jobs HTTP/1.0\r\nContent-Length: 10\r\n\r\nabc"
   with
  | O.Http.Incomplete -> ()
  | _ -> Alcotest.fail "short body should be Incomplete");
  (* Declared length beyond the cap is rejected before buffering. *)
  (match
     O.Http.parse_framed ~max_body:8
       "POST /jobs HTTP/1.0\r\nContent-Length: 9\r\n\r\n"
   with
  | O.Http.Too_large -> ()
  | _ -> Alcotest.fail "over-cap body should be Too_large");
  (match
     O.Http.parse_framed "POST /jobs HTTP/1.0\r\nContent-Length: -1\r\n\r\n"
   with
  | O.Http.Malformed _ -> ()
  | _ -> Alcotest.fail "negative Content-Length should be Malformed");
  (* GET keeps framing with an implicit zero-length body. *)
  (match O.Http.parse_framed "GET /metrics HTTP/1.0\r\n\r\n" with
  | O.Http.Complete (r, "") ->
      Alcotest.(check string) "GET path" "/metrics" r.O.Http.path
  | _ -> Alcotest.fail "bodyless GET not framed");
  let raw = O.Http.method_not_allowed ~allow:[ "GET"; "POST" ] in
  match O.Http.parse_response raw with
  | Error e -> Alcotest.fail e
  | Ok (status, headers, _) ->
      Alcotest.(check int) "405 status" 405 status;
      Alcotest.(check bool)
        "Allow header" true
        (List.assoc_opt "allow" headers = Some "GET, POST")

(* ---------- Event ring: retention and gap detection ---------- *)

let test_event_ring_gap () =
  with_publish @@ fun () ->
  P.set_ring_capacity 16;
  for i = 1 to 20 do
    P.job_started ~job:(Printf.sprintf "j%d" i) ~worker:0
  done;
  let s = P.events_since 0 in
  Alcotest.(check int) "next seq" 21 s.P.next_seq;
  Alcotest.(check int) "oldest retained" 5 s.P.oldest_seq;
  Alcotest.(check int) "retained count" 16 (List.length s.P.events);
  List.iteri
    (fun i e -> Alcotest.(check int) "contiguous ascending" (5 + i) e.P.seq)
    s.P.events;
  (* A subscriber asking from 0 missed seqs 1..4: the header must say
     so; one asking from 10 gets a gapless tail. *)
  let header since =
    let j = J.parse (P.events_header ~since) in
    ( Option.bind (J.member "schema" j) J.str,
      Option.bind (J.member "gap" j) J.bool )
  in
  Alcotest.(check bool)
    "late subscriber sees gap" true
    (header 0 = (Some "rfss.sweep_events/1", Some true));
  Alcotest.(check bool)
    "caught-up subscriber sees no gap" true
    (header 10 = (Some "rfss.sweep_events/1", Some false));
  let tail = P.events_since 10 in
  Alcotest.(check int) "tail count" 10 (List.length tail.P.events);
  Alcotest.(check int) "tail first" 11 (List.hd tail.P.events).P.seq;
  Alcotest.(check int)
    "beyond the end is empty" 0
    (List.length (P.events_since 30).P.events);
  (* Event JSONL lines carry the seq and kind. *)
  let e = List.hd s.P.events in
  let j = J.parse (P.event_to_json e) in
  Alcotest.(check bool)
    "event json seq" true
    (Option.bind (J.member "seq" j) J.num = Some (float_of_int e.P.seq));
  Alcotest.(check bool)
    "event json kind" true
    (Option.bind (J.member "event" j) J.str = Some "job_started")

(* ---------- Snapshot atomicity ---------- *)

let test_snapshot_atomicity () =
  with_publish @@ fun () ->
  let writers = 2 and per_writer = 300 in
  P.run_started ~domains:writers ~phase:"test" ~total:(writers * per_writer) ();
  let stop = Atomic.make false in
  let violations = ref 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let s = P.read_stats () in
          let worker_done =
            Array.fold_left (fun a w -> a + w.P.w_jobs_done) 0 s.P.workers
          in
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
  Alcotest.(check int) "no torn snapshots" 0 !violations;
  Alcotest.(check int) "final finished count" (writers * per_writer)
    (P.read_stats ()).P.counts.P.finished

(* ---------- Sweep fixtures (mirrors test_engine.ml) ---------- *)

let rc_problem ?(label = "rc") ?(f_fast = 1e6) ?(fd = 1e4) () =
  Engine.Problem.make ~label ~output:"out" ~f_fast ~fd (fun () ->
      Circuits.rc_lowpass
        ~drive:
          (W.sum
             (W.sine ~amplitude:1.0 ~freq:f_fast ())
             (W.sine ~amplitude:1.0 ~freq:(f_fast +. fd) ()))
        ())

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

let sweep_jobs fds =
  Array.map
    (fun fd ->
      Engine.Sweep.job ~options:small_options ~kind:Engine.Mpde
        (rc_problem ~label:(Printf.sprintf "fd=%g" fd) ~fd ()))
    fds

(* Render a result's waveform the way the CSV writer would — fixed
   %.17g per sample — so "byte-identical" means exactly that. *)
let waveform_csv (r : Engine.Result.t) =
  let buf = Buffer.create 4096 in
  let w = r.Engine.Result.waveform in
  Array.iteri
    (fun i t ->
      Buffer.add_string buf
        (Printf.sprintf "%.17g,%.17g\n" t w.Engine.Result.values.(i)))
    w.Engine.Result.times;
  Buffer.contents buf

(* ---------- Listener perturbs nothing ---------- *)

let test_listener_identical_results () =
  let src, _advance = Telemetry.Clock.manual () in
  Telemetry.Clock.install src;
  Fun.protect ~finally:(fun () -> Telemetry.Clock.uninstall ())
  @@ fun () ->
  let run_once () =
    Array.map
      (fun (o : Engine.Sweep.outcome) ->
        match o.Engine.Sweep.result with
        | Ok r -> (r.Engine.Result.label, r.Engine.Result.converged,
                   waveform_csv r)
        | Error e ->
            Alcotest.failf "job %d errored: %s" o.Engine.Sweep.index
              (Engine.Sweep.failure_to_string e))
      (Engine.Sweep.run ~domains:2 ~per_job_trace:true
         (sweep_jobs [| 1e4; 5e4 |]))
  in
  P.reset ();
  P.disarm ();
  let plain = run_once () in
  let sock = temp_socket "identical" in
  let live =
    match O.Server.start (O.Addr.Unix_socket sock) with
    | Error e -> Alcotest.fail e
    | Ok srv ->
        Fun.protect ~finally:(fun () -> O.Server.stop srv) run_once
  in
  Alcotest.(check int) "same job count" (Array.length plain)
    (Array.length live);
  Array.iteri
    (fun i (label, converged, csv) ->
      let label', converged', csv' = live.(i) in
      Alcotest.(check string) "label" label label';
      Alcotest.(check bool) "converged" converged converged';
      Alcotest.(check string)
        (Printf.sprintf "%s waveform CSV byte-identical" label)
        csv csv')
    plain

(* ---------- End-to-end: scrape a live two-domain sweep ---------- *)

let test_e2e_unix_socket_sweep () =
  P.reset ();
  let sock = temp_socket "e2e" in
  let addr = O.Addr.Unix_socket sock in
  match O.Server.start addr with
  | Error e -> Alcotest.fail e
  | Ok srv ->
      let stopped = ref false in
      Fun.protect ~finally:(fun () -> if not !stopped then O.Server.stop srv)
      @@ fun () ->
      let jobs = sweep_jobs [| 1e3; 1e4; 1e5; 2e5 |] in
      (* Scrape both fixed endpoints mid-run, from the first completion
         callback (which fires on a worker domain while the sweep is
         still running). *)
      let scrape_mutex = Mutex.create () in
      let mid_metrics = ref None and mid_healthz = ref None in
      let on_outcome (_ : Engine.Sweep.outcome) =
        Mutex.protect scrape_mutex (fun () ->
            if !mid_metrics = None then
              mid_metrics := Some (O.Client.get ~timeout:10.0 addr "/metrics");
            if !mid_healthz = None then
              mid_healthz := Some (O.Client.get ~timeout:10.0 addr "/healthz"))
      in
      let outcomes = Engine.Sweep.run ~domains:2 ~on_outcome jobs in
      Alcotest.(check int) "all jobs ran" (Array.length jobs)
        (Array.length outcomes);
      (* Mid-run /metrics parses with the strict Prometheus parser and
         reports the sweep size. *)
      (match !mid_metrics with
      | Some (Ok (status, _, body)) ->
          Alcotest.(check int) "metrics status" 200 status;
          let samples =
            try Diagnostics.Registry.parse_prometheus body
            with Failure m -> Alcotest.failf "metrics did not re-parse: %s" m
          in
          (match
             List.find_opt
               (fun (n, _, _) -> n = "rfss_sweep_jobs_total")
               samples
           with
          | Some (_, _, v) ->
              Alcotest.(check (float 0.0)) "jobs_total" 4.0 v
          | None -> Alcotest.fail "missing rfss_sweep_jobs_total")
      | Some (Error e) -> Alcotest.failf "mid-run /metrics failed: %s" e
      | None -> Alcotest.fail "on_outcome never fired");
      (* Mid-run /healthz is valid JSON in the running phase. *)
      (match !mid_healthz with
      | Some (Ok (status, _, body)) ->
          Alcotest.(check int) "healthz status" 200 status;
          let j = J.parse body in
          Alcotest.(check bool)
            "healthz schema" true
            (Option.bind (J.member "schema" j) J.str
            = Some "rfss.healthz/1");
          Alcotest.(check bool)
            "healthz running" true
            (Option.bind (J.member "phase" j) J.str = Some "running")
      | Some (Error e) -> Alcotest.failf "mid-run /healthz failed: %s" e
      | None -> Alcotest.fail "on_outcome never fired");
      (* After the run: phase done, all jobs finished. *)
      (match O.Client.get ~timeout:10.0 addr "/healthz" with
      | Ok (200, _, body) ->
          let j = J.parse body in
          Alcotest.(check bool)
            "final phase done" true
            (Option.bind (J.member "phase" j) J.str = Some "done");
          Alcotest.(check bool)
            "final finished count" true
            (Option.bind (J.path [ "jobs"; "finished" ] j) J.num = Some 4.0)
      | Ok (st, _, _) -> Alcotest.failf "final /healthz status %d" st
      | Error e -> Alcotest.failf "final /healthz failed: %s" e);
      (* Subscribe to /events from 0: header first, then every retained
         event with contiguous seqs and one job_finished per job. *)
      (match O.Client.open_stream ~timeout:10.0 ~since:0 addr with
      | Error e -> Alcotest.failf "open_stream failed: %s" e
      | Ok stream ->
          let lines = ref [] in
          let deadline = Unix.gettimeofday () +. 10.0 in
          let enough () =
            List.exists
              (fun l ->
                match J.parse l with
                | j -> Option.bind (J.member "event" j) J.str
                       = Some "run_finished"
                | exception J.Parse_error _ -> false)
              !lines
          in
          while
            (not (enough ()))
            && (not (O.Client.closed stream))
            && Unix.gettimeofday () < deadline
          do
            match O.Client.poll_lines stream with
            | [] -> ignore (Unix.select [] [] [] 0.02)
            | ls -> lines := !lines @ ls
          done;
          lines := !lines @ O.Client.poll_lines stream;
          O.Client.close_stream stream;
          (match !lines with
          | header :: events ->
              let j = J.parse header in
              Alcotest.(check bool)
                "events header schema" true
                (Option.bind (J.member "schema" j) J.str
                = Some "rfss.sweep_events/1");
              Alcotest.(check bool)
                "no gap from seq 0" true
                (Option.bind (J.member "gap" j) J.bool = Some false);
              let seqs =
                List.filter_map
                  (fun l -> Option.bind (J.member "seq" (J.parse l)) J.num)
                  events
              in
              Alcotest.(check bool) "got events" true (seqs <> []);
              List.iteri
                (fun i s ->
                  Alcotest.(check (float 0.0)) "seq contiguous"
                    (float_of_int (i + 1)) s)
                seqs;
              let finished =
                List.length
                  (List.filter
                     (fun l ->
                       Option.bind (J.member "event" (J.parse l)) J.str
                       = Some "job_finished")
                     events)
              in
              Alcotest.(check int) "one job_finished per job"
                (Array.length jobs) finished
          | [] -> Alcotest.fail "no lines from /events"));
      O.Server.stop srv;
      stopped := true;
      Alcotest.(check bool)
        "unix socket unlinked on stop" false (Sys.file_exists sock)

(* ---------- TCP with a kernel-assigned port ---------- *)

let test_tcp_ephemeral_port () =
  P.reset ();
  match O.Server.start (O.Addr.Tcp ("127.0.0.1", 0)) with
  | Error e -> Alcotest.fail e
  | Ok srv ->
      Fun.protect ~finally:(fun () -> O.Server.stop srv)
      @@ fun () ->
      let addr = O.Server.addr srv in
      (match addr with
      | O.Addr.Tcp (_, port) ->
          Alcotest.(check bool) "kernel assigned a port" true (port > 0)
      | O.Addr.Unix_socket _ -> Alcotest.fail "expected a TCP address");
      (match O.Client.get ~timeout:10.0 addr "/healthz" with
      | Ok (200, _, body) ->
          Alcotest.(check bool)
            "healthz over TCP" true
            (Option.bind (J.member "schema" (J.parse body)) J.str
            = Some "rfss.healthz/1")
      | Ok (st, _, _) -> Alcotest.failf "/healthz status %d" st
      | Error e -> Alcotest.fail e);
      (match O.Client.get ~timeout:10.0 addr "/nope" with
      | Ok (404, _, _) -> ()
      | Ok (st, _, _) -> Alcotest.failf "expected 404, got %d" st
      | Error e -> Alcotest.fail e);
      (* stop is idempotent. *)
      O.Server.stop srv;
      O.Server.stop srv

(* ---------- route streams ---------- *)

let test_route_stream_late_eof () =
  (* A route stream whose [`Eof] arrives on a later poll, after its last
     bytes were already written: the server must close the connection
     then, not leave the client waiting for its inactivity timeout. *)
  P.reset ();
  let eof_after = ref infinity in
  let poll () =
    if !eof_after = infinity then begin
      eof_after := Unix.gettimeofday () +. 0.2;
      `Data "last line\n"
    end
    else if Unix.gettimeofday () < !eof_after then `Wait
    else `Eof
  in
  let routes (req : O.Http.request) _body =
    if req.O.Http.path = "/stream" then
      Some (O.Server.Stream { header = O.Http.stream_header (); poll })
    else None
  in
  match O.Server.start ~routes (O.Addr.Tcp ("127.0.0.1", 0)) with
  | Error e -> Alcotest.fail e
  | Ok srv -> (
      Fun.protect ~finally:(fun () -> O.Server.stop srv) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      match O.Client.get ~timeout:5.0 (O.Server.addr srv) "/stream" with
      | Ok (200, _, body) ->
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check string) "streamed body" "last line\n" body;
          Alcotest.(check bool)
            (Printf.sprintf "closed at Eof (%.2f s), not at the timeout" elapsed)
            true (elapsed < 1.0)
      | Ok (st, _, _) -> Alcotest.failf "status %d" st
      | Error e -> Alcotest.fail e)

(* ---------- run ---------- *)

let () =
  Alcotest.run "observe"
    [
      ( "addr",
        [ Alcotest.test_case "parse and round trip" `Quick test_addr_parse ] );
      ( "http",
        [
          Alcotest.test_case "request parsing" `Quick test_http_request;
          Alcotest.test_case "response round trip" `Quick
            test_http_response_round_trip;
          Alcotest.test_case "POST framing and 405" `Quick
            test_http_framed_and_405;
        ] );
      ( "events",
        [ Alcotest.test_case "ring retention and gaps" `Quick test_event_ring_gap ] );
      ( "publish",
        [ Alcotest.test_case "snapshot atomicity" `Quick test_snapshot_atomicity ] );
      ( "sweep",
        [
          Alcotest.test_case "listener perturbs nothing" `Quick
            test_listener_identical_results;
          Alcotest.test_case "end-to-end unix socket scrape" `Quick
            test_e2e_unix_socket_sweep;
          Alcotest.test_case "tcp ephemeral port" `Quick
            test_tcp_ephemeral_port;
        ] );
      ( "routes",
        [
          Alcotest.test_case "stream closes on a late Eof" `Quick
            test_route_stream_late_eof;
        ] );
    ]
