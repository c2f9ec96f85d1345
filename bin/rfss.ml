(* rfss — command-line front end: run any analysis (DC, transient,
   shooting, harmonic balance, MPDE, envelope following) on the
   built-in circuits. Outputs are CSV on stdout so they pipe into
   plotting tools.

     rfss list
     rfss dcop --circuit rectifier
     rfss transient --circuit detector --t-stop 2e-4 --steps 4000
     rfss solve --circuit rectifier --engine shooting --steps 512
     rfss solve --circuit rectifier --engine hb --harmonics 12
     rfss solve --circuit rectifier --engine periodic-fd
     rfss mpde --circuit balanced-mixer --n1 40 --n2 30 --output envelope
     rfss envelope --circuit detector --steps 48
     rfss sweep --circuit rc --param fd=1e3:1e6:log:8 --engine mpde,shooting

   The steady-state subcommands are thin wrappers over the unified
   [Engine] API (lib/engine, DESIGN.md §11); [sweep] fans jobs out
   over OCaml 5 domains via [Engine.Sweep]. The built-in circuits, and
   the one validator of their tones, live in [Serve.Catalog], shared
   with the solve service. *)

(* Telemetry surface shared by the solve commands: --trace FILE dumps
   the recorded event stream (JSON lines or Chrome trace_event JSON),
   --timings prints the span summary tree to stderr after the run,
   --metrics FILE exports the recorded counters/gauges/histograms as
   Prometheus text (or CSV when the file ends in .csv). Recording only
   switches on when one of the three was requested. *)
type trace_format = Jsonl | Chrome

type telemetry_opts = {
  trace : string option;
  trace_format : trace_format;
  timings : bool;
  metrics : string option;
}

(* Registry the running command can add computed metrics to (e.g. the
   health assessment); merged with the telemetry-derived samples when
   --metrics is written. One command runs per process, so a single
   shared registry is safe. *)
let metrics_registry = Diagnostics.Registry.create ()

let write_metrics file registry =
  let text =
    if Filename.check_suffix file ".csv" then Diagnostics.Registry.to_csv registry
    else Diagnostics.Registry.to_prometheus registry
  in
  let oc = open_out file in
  output_string oc text;
  close_out oc

let with_telemetry opts f =
  if opts.trace = None && (not opts.timings) && opts.metrics = None then f ()
  else begin
    Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        (match Telemetry.snapshot () with
        | None -> ()
        | Some snap ->
            (match opts.trace with
            | Some file ->
                let oc = open_out file in
                (match opts.trace_format with
                | Jsonl -> Telemetry.Sink.write_jsonl oc snap
                | Chrome -> Telemetry.Sink.write_chrome oc snap);
                close_out oc
            | None -> ());
            if opts.timings then
              Format.eprintf "%a@." Telemetry.Summary.pp
                (Telemetry.Summary.of_snapshot snap);
            (match opts.metrics with
            | Some file ->
                write_metrics file
                  (Diagnostics.Registry.of_telemetry ~registry:metrics_registry
                     snap)
            | None -> ()));
        Telemetry.disable ())
      f
  end

(* Introspection plane: --listen ADDR arms Observe.Publish and serves
   /metrics, /healthz and /events from a dedicated domain for the
   duration of the command. Without the flag nothing is armed and the
   engine hooks cost one atomic load each. *)
let with_listen listen f =
  match listen with
  | None -> f ()
  | Some spec -> (
      match Observe.Addr.parse spec with
      | Error e ->
          prerr_endline e;
          1
      | Ok addr -> (
          match Observe.Server.start addr with
          | Error e ->
              prerr_endline e;
              1
          | Ok srv ->
              Fun.protect ~finally:(fun () -> Observe.Server.stop srv) f))

(* ---------- commands ---------- *)

let list_cmd () =
  Printf.printf "%-18s %s\n" "name" "description";
  List.iter
    (fun (f : Serve.Catalog.t) -> Printf.printf "%-18s %s\n" f.name f.description)
    Serve.Catalog.all;
  0

(* Every command that builds a built-in circuit takes its
   (fixture, f_fast, fd) from [tones_arg], already checked by
   Serve.Catalog.resolve. *)

let dcop_cmd tele ((fixture : Serve.Catalog.t), f_fast, fd) budget_seconds
    max_newton =
  with_telemetry tele @@ fun () ->
  let { Circuits.mna; _ } = fixture.build ~f_fast ~fd in
  let budget =
    Resilience.Budget.of_limits ?wall_seconds:budget_seconds ?max_newton ()
  in
  let report = Circuit.Dcop.solve ?budget mna in
  Printf.printf "# converged=%b strategy=%s newton=%d\n" report.Circuit.Dcop.converged
    (match report.Circuit.Dcop.strategy with
    | `Newton -> "newton"
    | `Gmin_stepping -> "gmin-stepping"
    | `Source_stepping -> "source-stepping")
    report.Circuit.Dcop.newton_iterations;
  Printf.printf "# report=%s\n"
    (Resilience.Report.to_json_string report.Circuit.Dcop.resilience);
  let names = Circuit.Mna.unknown_names mna in
  Array.iteri
    (fun i name -> Printf.printf "%-16s %+.6e\n" name report.Circuit.Dcop.x.(i))
    names;
  if report.Circuit.Dcop.converged then 0 else 1

let transient_cmd tele ((fixture : Serve.Catalog.t), f_fast, fd) t_stop steps =
  with_telemetry tele @@ fun () ->
  let { Circuits.mna; _ } = fixture.build ~f_fast ~fd in
  let t_stop = Option.value t_stop ~default:(10.0 /. f_fast) in
  let result = Circuit.Transient.run ~mna ~t_stop ~steps () in
  Printf.printf "t,v(%s)\n" fixture.output_node;
  Array.iteri
    (fun k t ->
      Printf.printf "%.9e,%.6e\n" t
        (Serve.Catalog.output_value fixture mna
           result.Circuit.Transient.trace.Numeric.Integrator.states.(k)))
    result.Circuit.Transient.trace.Numeric.Integrator.times;
  0

(* Generic single solve through the unified API: any engine, unified
   options, unified result rendering (metrics + health + report). *)
let solve_cmd tele listen kind ((fixture : Serve.Catalog.t), f_fast, fd) period
    steps segments harmonics points n1 n2 tol budget_seconds max_newton =
  with_listen listen @@ fun () ->
  with_telemetry tele @@ fun () ->
  let problem = Serve.Catalog.problem_of ~period fixture ~f_fast ~fd in
  let options =
    {
      Engine.Options.default with
      tol;
      steps_per_period = steps;
      segments;
      harmonics;
      points;
      n1;
      n2;
      budget =
        Resilience.Budget.of_limits ?wall_seconds:budget_seconds ?max_newton ();
    }
  in
  Observe.Publish.run_started ~phase:"solve" ~total:1 ();
  Observe.Publish.job_started ~job:problem.Engine.Problem.label ~worker:0;
  let r = Engine.run problem (Engine.make ~options kind) in
  if Observe.Publish.armed () then
    Observe.Publish.job_finished ~job:problem.Engine.Problem.label ~worker:0
      ~status:(if r.Engine.Result.converged then "ok" else "failed")
      ~health:
        (Some
           (Engine.Sweep.health_class
              r.Engine.Result.health.Diagnostics.Health.convergence))
      ~wall_seconds:r.Engine.Result.wall_seconds ~attempts:1;
  Observe.Publish.run_finished ();
  (* An MPDE result also names where its Newton run started. *)
  let start =
    match r.Engine.Result.mpde_solution with
    | Some sol ->
        " start=" ^ Mpde.Solver.start_name sol.Mpde.Solver.stats.Mpde.Solver.start
    | None -> ""
  in
  Printf.printf "# engine=%s converged=%b newton=%d%s residual=%.2e wall=%.3fs\n"
    (Engine.kind_name r.Engine.Result.kind) r.Engine.Result.converged
    r.Engine.Result.newton_iterations start r.Engine.Result.residual_norm
    r.Engine.Result.wall_seconds;
  List.iter
    (fun (k, v) -> Printf.printf "# metric %s=%.6e\n" k v)
    r.Engine.Result.metrics;
  (* summary_line already starts with "health: " *)
  Printf.printf "# %s\n" (Diagnostics.Health.summary_line r.Engine.Result.health);
  Printf.printf "# report=%s\n"
    (Resilience.Report.to_json_string r.Engine.Result.report);
  print_string
    (Serve.Protocol.waveform_csv ~output_node:fixture.output_node
       r.Engine.Result.waveform);
  if r.Engine.Result.converged then 0 else 1

type mpde_output = Envelope | Surface | Diagonal | Gain

let mpde_cmd tele ((fixture : Serve.Catalog.t), f_fast, fd) n1 n2 output
    budget_seconds max_newton =
  with_telemetry tele @@ fun () ->
  let problem = Serve.Catalog.problem_of fixture ~f_fast ~fd in
  let options =
    {
      Engine.Options.default with
      n1;
      n2;
      budget =
        Resilience.Budget.of_limits ?wall_seconds:budget_seconds ?max_newton ();
    }
  in
  let r = Engine.run problem (Engine.make ~options Engine.Mpde) in
  let sol =
    match r.Engine.Result.mpde_solution with
    | Some sol -> sol
    | None -> assert false (* the MPDE backend always attaches it *)
  in
  (* Fresh identically-built MNA for node-index lookups only; the
     solve itself ran on the problem's own instance. *)
  let { Circuits.mna; _ } = fixture.build ~f_fast ~fd in
  let stats = sol.Mpde.Solver.stats in
  Printf.printf
    "# converged=%b strategy=%s start=%s newton=%d gmres=%d continuation=%d residual=%.2e \
     wall=%.2fs\n"
    stats.Mpde.Solver.converged stats.Mpde.Solver.strategy
    (Mpde.Solver.start_name stats.Mpde.Solver.start)
    stats.Mpde.Solver.newton_iterations stats.Mpde.Solver.linear_iterations
    stats.Mpde.Solver.continuation_steps stats.Mpde.Solver.residual_norm
    stats.Mpde.Solver.wall_seconds;
  Printf.printf "# report=%s\n"
    (Resilience.Report.to_json_string sol.Mpde.Solver.report);
  let values =
    match fixture.output_node_b with
    | None -> Mpde.Extract.surface_of_node sol mna fixture.output_node
    | Some b -> Mpde.Extract.differential_surface sol mna fixture.output_node b
  in
  (match output with
  | Envelope ->
      let env = Mpde.Extract.envelope sol ~values in
      let times = Mpde.Extract.envelope_times sol in
      Printf.printf "t2,v\n";
      Array.iteri (fun j v -> Printf.printf "%.9e,%.6e\n" times.(j) v) env
  | Surface ->
      Printf.printf "t1,t2,v\n";
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v ->
              Printf.printf "%.9e,%.9e,%.6e\n"
                (Mpde.Grid.t1_of sol.Mpde.Solver.grid i)
                (Mpde.Grid.t2_of sol.Mpde.Solver.grid j)
                v)
            row)
        values
  | Diagonal ->
      let times, series =
        Mpde.Extract.diagonal sol ~values ~t_start:0.0 ~t_stop:(5.0 /. f_fast)
          ~samples:200
      in
      Printf.printf "t,v\n";
      Array.iteri (fun k v -> Printf.printf "%.9e,%.6e\n" times.(k) v) series
  | Gain ->
      (* Engine.run has already taken the baseband's one spectrum: its
         metrics hold the fundamental and the THD, and its waveform is
         the baseband. The metrics report a THD at the roundoff floor
         as 0, where the gain table prints infinity. *)
      let metric name = List.assoc name r.Engine.Result.metrics in
      let amplitude = metric "baseband_h1" in
      let peak = Linalg.Vec.norm_inf r.Engine.Result.waveform.Engine.Result.values in
      let thd =
        if Numeric.Fft.at_roundoff_floor ~peak amplitude then infinity else metric "thd"
      in
      Printf.printf "baseband_amplitude,conversion_gain_db,thd\n";
      (* Conversion gain for a unit RF drive amplitude. *)
      Printf.printf "%.6e,%.3f,%.5f\n" amplitude (20.0 *. log10 amplitude) thd);
  if stats.Mpde.Solver.converged then 0 else 1

(* ---------- parameter sweeps (Engine.Sweep) ---------- *)

(* --param NAME=START:STOP:lin|log:N or NAME=v1,v2,...; NAME is the
   frequency being swept: fd (difference tone) or fast (LO). *)
let parse_param s =
  try
    let i = String.index s '=' in
    let name = String.sub s 0 i in
    let spec = String.sub s (i + 1) (String.length s - i - 1) in
    if name <> "fd" && name <> "fast" then
      failwith "parameter must be fd or fast";
    let values =
      match String.split_on_char ':' spec with
      | [ list ] ->
          Array.of_list
            (List.map float_of_string (String.split_on_char ',' list))
      | [ a; b; scale; n ] ->
          let a = float_of_string a and b = float_of_string b in
          let n = int_of_string n in
          if n < 2 then failwith "need at least 2 points";
          let at =
            match scale with
            | "lin" ->
                fun i ->
                  a +. ((b -. a) *. float_of_int i /. float_of_int (n - 1))
            | "log" ->
                if a <= 0.0 || b <= 0.0 then
                  failwith "log scale needs positive endpoints";
                fun i -> a *. ((b /. a) ** (float_of_int i /. float_of_int (n - 1)))
            | _ -> failwith "scale must be lin or log"
          in
          Array.init n at
      | _ -> failwith "expected NAME=v1,v2,... or NAME=START:STOP:lin|log:N"
    in
    if Array.length values = 0 then failwith "empty value list";
    Ok (name, values)
  with
  | Not_found -> Error (Printf.sprintf "bad --param %S: expected NAME=SPEC" s)
  | Failure msg -> Error (Printf.sprintf "bad --param %S: %s" s msg)

(* The sweep's jobs as (engine, label, f_fast, fd): every (engine,
   value) pair, each pair's tones checked by the same
   Serve.Catalog.resolve as a single solve's. *)
let sweep_points ((fixture : Serve.Catalog.t), f_fast0, fd0) kinds
    (pname, values) =
  let point kind v =
    let f_fast = if pname = "fast" then v else f_fast0 in
    let fd = if pname = "fd" then v else fd0 in
    let label =
      Printf.sprintf "%s:%s:%s=%g" fixture.name (Engine.kind_name kind) pname v
    in
    Result.map
      (fun _ -> (kind, label, f_fast, fd))
      (Serve.Catalog.resolve ~engine:kind ~f_fast ~fd fixture.name)
  in
  let points =
    List.concat_map (fun kind -> List.map (point kind) (Array.to_list values)) kinds
  in
  match List.find_map (function Error e -> Some e | Ok _ -> None) points with
  | Some e -> Error e
  | None -> Ok (fixture, List.map Result.get_ok points)

let sweep_default_domains () =
  match Option.bind (Sys.getenv_opt "DOMAINS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> Engine.Sweep.default_domains ()

let csv_sanitize msg =
  String.map (fun c -> if c = ',' || c = '\n' || c = '\r' then ';' else c) msg

type sweep_format = Sweep_csv | Sweep_json

(* Both renderers print from checkpoint records — the same shape a
   resumed run loads from disk — so an interrupted-then-resumed sweep
   is byte-for-byte identical to an uninterrupted one by construction
   (floats round-trip through the checkpoint's %.17g exactly). *)

let emit_sweep_csv ~no_wall (records : Engine.Checkpoint.record array) =
  Printf.printf
    "label,engine,fast,fd,status,converged,newton,residual,h1,thd,waveform_hash,attempts%s,message\n"
    (if no_wall then "" else ",wall_seconds");
  Array.iter
    (fun (r : Engine.Checkpoint.record) ->
      let wall =
        if no_wall then "" else Printf.sprintf ",%.6f" r.Engine.Checkpoint.wall_seconds
      in
      let message =
        if r.Engine.Checkpoint.status <> "error" then ""
        else
          csv_sanitize
            (r.Engine.Checkpoint.message
            ^
            match r.Engine.Checkpoint.stage with
            | Some st -> Printf.sprintf " [stage %s]" st
            | None -> "")
      in
      Printf.printf "%s,%s,%.9e,%.9e,%s,%b,%d,%.6e,%.6e,%.6e,%s,%d%s,%s\n"
        r.Engine.Checkpoint.label r.Engine.Checkpoint.engine
        r.Engine.Checkpoint.f_fast r.Engine.Checkpoint.fd
        r.Engine.Checkpoint.status r.Engine.Checkpoint.converged
        r.Engine.Checkpoint.newton r.Engine.Checkpoint.residual
        r.Engine.Checkpoint.h1 r.Engine.Checkpoint.thd
        r.Engine.Checkpoint.waveform_hash r.Engine.Checkpoint.attempts wall
        message)
    records

(* Live progress meter for --progress. [on_outcome] fires on whichever
   domain finished the job, so the meter serializes internally. ETA is
   naive (mean rate so far), which is the honest choice for jobs of
   wildly different cost; before the first job completes both rate and
   ETA render as "--" rather than 0/inf/nan.

   On an interactive stderr the line is \r-rewritten in place. When
   stderr is not a TTY — or NO_COLOR / CI asks for dumb output — each
   update is its own newline-terminated line, so redirected logs and CI
   consoles show real lines instead of one giant \r-glued blob. *)
let progress_plain () =
  (not (Unix.isatty Unix.stderr))
  || Sys.getenv_opt "NO_COLOR" <> None
  || Sys.getenv_opt "CI" <> None

let progress_reporter ~total =
  let m = Mutex.create () in
  let plain = progress_plain () in
  let finished = ref 0 in
  let t0 = Telemetry.Clock.wall () in
  let render d =
    let elapsed = Telemetry.Clock.wall () -. t0 in
    let rate =
      if d > 0 && elapsed > 0.0 then Some (float_of_int d /. elapsed)
      else None
    in
    let rate_s =
      match rate with Some r -> Printf.sprintf "%.2f" r | None -> "--"
    in
    let eta_s =
      match rate with
      | Some r when d < total ->
          Printf.sprintf "%.1fs" (float_of_int (total - d) /. r)
      | Some _ -> "0.0s"
      | None -> "--"
    in
    let line =
      Printf.sprintf "[%d/%d] %3.0f%%  %.1fs elapsed  eta %s  %s jobs/s" d
        total
        (100.0 *. float_of_int d /. float_of_int total)
        elapsed eta_s rate_s
    in
    if plain then Printf.eprintf "%s\n" line
    else begin
      Printf.eprintf "\r%s " line;
      if d >= total then prerr_newline ()
    end;
    flush stderr
  in
  (* The 0/total line shows the meter is live (and that rate/ETA are
     honestly unknown) before any job lands. *)
  render 0;
  fun (_ : Engine.Sweep.outcome) ->
    Mutex.lock m;
    incr finished;
    render !finished;
    Mutex.unlock m

let p99_or_zero (h : Telemetry.histogram) =
  if h.Telemetry.count > 0 then Telemetry.quantile h 0.99 else 0.0

(* One merged Chrome trace for the whole sweep: each worker domain gets
   its own tid lane (real OS pid), plus an "rfss" top-level section —
   ignored by trace viewers, read back by [rfss report] — carrying the
   wall attribution the trace alone cannot express (measured sweep
   wall, per-domain busy/utilization, retry counts, GC pause stats). *)
let write_merged_trace ~file ~domains ~wall ~gc
    (outcomes : Engine.Sweep.outcome array) =
  let module J = Telemetry.Json in
  let pid = Unix.getpid () in
  let parts =
    Array.to_list outcomes
    |> List.filter_map (fun (o : Engine.Sweep.outcome) ->
           Option.map
             (fun (base, snapshot) ->
               {
                 Telemetry.Merge.pid;
                 tid = o.Engine.Sweep.worker + 1;
                 thread_name = Printf.sprintf "domain-%d" o.Engine.Sweep.worker;
                 label = Some o.Engine.Sweep.job.Engine.Sweep.label;
                 base;
                 snapshot;
               })
             o.Engine.Sweep.trace)
  in
  let busy = Array.make (max 1 domains) 0.0 in
  let retries = ref 0 and degraded = ref 0 in
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      let w = o.Engine.Sweep.worker in
      if w >= 0 && w < Array.length busy then
        busy.(w) <- busy.(w) +. o.Engine.Sweep.wall_seconds;
      retries := !retries + Engine.Sweep.retries o;
      if o.Engine.Sweep.degraded then incr degraded)
    outcomes;
  let total_busy = Array.fold_left ( +. ) 0.0 busy in
  let util b = if wall > 0.0 then b /. wall else 0.0 in
  let per_domain =
    Array.to_list
      (Array.mapi
         (fun k b ->
           J.Obj
             [
               ("worker", J.Num (float_of_int k));
               ("busy_seconds", J.Num b);
               ("utilization", J.Num (util b));
             ])
         busy)
  in
  let gc_json =
    match gc with
    | None -> J.Null
    | Some (s : Telemetry.Runtime.stats) ->
        J.Obj
          [
            ("minor_collections", J.Num (float_of_int s.minor_collections));
            ("major_slices", J.Num (float_of_int s.major_slices));
            ("domains_seen", J.Num (float_of_int s.domains_seen));
            ("lost_events", J.Num (float_of_int s.lost_events));
            ("minor_pause_p99", J.Num (p99_or_zero s.minor_pause));
            ("major_pause_p99", J.Num (p99_or_zero s.major_pause));
          ]
  in
  let rfss_json =
    J.Obj
      [
        ("schema", J.Str "rfss.sweep_trace/1");
        ("wall_seconds", J.Num wall);
        ("domains", J.Num (float_of_int domains));
        ("jobs", J.Num (float_of_int (Array.length outcomes)));
        ("retries", J.Num (float_of_int !retries));
        ("degraded_jobs", J.Num (float_of_int !degraded));
        ( "utilization",
          J.Num
            (if wall > 0.0 && domains > 0 then
               total_busy /. (float_of_int domains *. wall)
             else 0.0) );
        ("per_domain", J.Arr per_domain);
        ("gc", gc_json);
      ]
  in
  let oc = open_out file in
  Telemetry.Merge.write_chrome ~extra:[ ("rfss", J.to_string rfss_json) ] oc
    parts;
  close_out oc

let sweep_cmd tele listen ((fixture : Serve.Catalog.t), points) period domains
    no_wall format n1 n2 steps tol budget_seconds max_newton per_job_telemetry
    progress plan checkpoint resume keep_going retries no_degrade =
  (* A Chrome-format --trace on a sweep means the cross-domain merged
     trace, written from per-job snapshots captured on the executing
     domains — not the caller-domain-only snapshot [with_telemetry]
     would dump. Blank the option so the generic writer stays out of
     the way; jsonl traces keep the historical single-recorder shape. *)
  let merged_trace =
    match (tele.trace, tele.trace_format) with
    | Some file, Chrome -> Some file
    | _ -> None
  in
  let tele =
    match merged_trace with Some _ -> { tele with trace = None } | None -> tele
  in
  with_listen listen @@ fun () ->
  with_telemetry tele @@ fun () ->
  let options =
    { Engine.Options.default with n1; n2; steps_per_period = steps; tol }
  in
  let jobs =
    Array.of_list
      (List.map
         (fun (kind, label, f_fast, fd) ->
           let problem =
             Serve.Catalog.problem_of ~period ~label fixture ~f_fast ~fd
           in
           Engine.Sweep.job ~label ~options ~kind problem)
         points)
  in
  let domains =
    match domains with Some d -> d | None -> sweep_default_domains ()
  in
  let retry =
    {
      Resilience.Retry.default with
      Resilience.Retry.max_attempts = 1 + max 0 retries;
      degrade = not no_degrade;
    }
  in
  (* Install the fault plan before any worker domain spawns, so the
     wrapped (skewable) clock source is the one workers read. *)
  (match plan with
  | Some p -> Resilience.Faultinject.install p
  | None -> ());
  Fun.protect ~finally:Resilience.Faultinject.uninstall @@ fun () ->
  let key_of (j : Engine.Sweep.job) =
    let p = j.Engine.Sweep.problem in
    Engine.Key.hash ~label:j.Engine.Sweep.label
      ~engine:(Engine.kind_name j.Engine.Sweep.engine.Engine.kind)
      ~f_fast:p.Engine.Problem.f_fast ~fd:p.Engine.Problem.fd
      ~options:j.Engine.Sweep.engine.Engine.options
  in
  let log =
    match checkpoint with
    | None -> None
    | Some path ->
        (* Without --resume a stale log must not mask re-runs. *)
        if not resume then (try Sys.remove path with Sys_error _ -> ());
        Some (Engine.Checkpoint.create path)
  in
  let cached = Array.map (fun _ -> None) jobs in
  (match log with
  | Some log when resume ->
      Array.iteri
        (fun i j ->
          cached.(i) <- Engine.Checkpoint.find log ~key:(key_of j))
        jobs
  | _ -> ());
  let pending =
    Array.fold_left (fun k c -> if c = None then k + 1 else k) 0 cached
  in
  let on_outcome =
    let checkpointer =
      Option.map
        (fun log (o : Engine.Sweep.outcome) ->
          Engine.Checkpoint.append log (Engine.Checkpoint.of_outcome o);
          Observe.Publish.checkpoint_written
            ~job:o.Engine.Sweep.job.Engine.Sweep.label)
        log
    in
    let reporter =
      if progress && pending > 0 then
        Some (progress_reporter ~total:pending)
      else None
    in
    match (checkpointer, reporter) with
    | None, None -> None
    | (Some _ as f), None -> f
    | None, (Some _ as g) -> g
    | Some f, Some g ->
        Some
          (fun o ->
            f o;
            g o)
  in
  (* GC attribution for the merged trace: arm the runtime-events
     monitor before any worker domain spawns so every ring is
     covered from birth. *)
  let monitor =
    if merged_trace <> None then Telemetry.Runtime.start () else None
  in
  let sweep_t0 = Telemetry.Clock.wall () in
  let outcomes =
    Engine.Sweep.run ~domains ?wall_seconds:budget_seconds
      ?max_newton_per_job:max_newton ~per_job_telemetry
      ~per_job_trace:(merged_trace <> None) ~retry
      ~completed:(fun i -> cached.(i) <> None)
      ?on_outcome jobs
  in
  let sweep_wall = Telemetry.Clock.wall () -. sweep_t0 in
  let gc =
    Option.map
      (fun m ->
        Telemetry.Runtime.poll m;
        let s = Telemetry.Runtime.stats m in
        Telemetry.Runtime.observe_into_telemetry m;
        Telemetry.Runtime.stop m;
        s)
      monitor
  in
  (match merged_trace with
  | Some file ->
      write_merged_trace ~file ~domains ~wall:sweep_wall ~gc outcomes
  | None -> ());
  (* Stitch cached and fresh records back into input job order. *)
  let records = Array.copy cached in
  Array.iter
    (fun (o : Engine.Sweep.outcome) ->
      records.(o.Engine.Sweep.index) <- Some (Engine.Checkpoint.of_outcome o))
    outcomes;
  let records = Array.map Option.get records in
  (match format with
  | Sweep_csv -> emit_sweep_csv ~no_wall records
  | Sweep_json -> print_string (Engine.Checkpoint.rows_json ~no_wall records));
  let bad =
    Array.exists
      (fun (r : Engine.Checkpoint.record) ->
        r.Engine.Checkpoint.status <> "ok")
      records
  in
  if bad && not keep_going then 1 else 0

(* ---------- rfss report: wall attribution from a merged trace ---------- *)

let format_seconds s =
  if Float.is_nan s then "?"
  else if Float.abs s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if Float.abs s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let report_cmd file top =
  let module J = Telemetry.Json in
  match
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    J.parse s
  with
  | exception Sys_error e ->
      prerr_endline e;
      1
  | exception J.Parse_error e ->
      Printf.eprintf "%s: not a valid trace: %s\n" file e;
      1
  | json ->
      let events =
        match J.member "traceEvents" json with Some (J.Arr l) -> l | _ -> []
      in
      let fnum name ev = Option.bind (J.member name ev) J.num in
      let fstr name ev = Option.bind (J.member name ev) J.str in
      let fint name ev = Option.map int_of_float (fnum name ev) in
      (* Lanes in document order; B/E events stay in emission order
         within a lane, which is their nesting order — no re-sort. *)
      let lanes : (int * int, J.t list ref) Hashtbl.t = Hashtbl.create 8 in
      let lane_order = ref [] in
      let thread_names = Hashtbl.create 8 in
      let ts_min = ref infinity and ts_max = ref neg_infinity in
      (* Preconditioner counters and gauges (Chrome "C" events), one
         value per trace part, in document order. *)
      let precond = ref [] in
      List.iter
        (fun ev ->
          let key =
            ( Option.value ~default:0 (fint "pid" ev),
              Option.value ~default:0 (fint "tid" ev) )
          in
          match fstr "ph" ev with
          | Some "M" -> (
              match (fstr "name" ev, J.member "args" ev) with
              | Some "thread_name", Some args -> (
                  match Option.bind (J.member "name" args) J.str with
                  | Some n -> Hashtbl.replace thread_names key n
                  | None -> ())
              | _ -> ())
          | Some (("B" | "E") as ph) ->
              (match fnum "ts" ev with
              | Some ts ->
                  ts_min := Float.min !ts_min ts;
                  ts_max := Float.max !ts_max ts
              | None -> ());
              let q =
                match Hashtbl.find_opt lanes key with
                | Some q -> q
                | None ->
                    let q = ref [] in
                    Hashtbl.add lanes key q;
                    lane_order := key :: !lane_order;
                    q
              in
              ignore ph;
              q := ev :: !q
          | Some "C" -> (
              let value =
                Option.bind (J.member "args" ev) (fun a ->
                    Option.bind (J.member "value" a) J.num)
              in
              match (fstr "name" ev, value) with
              | Some name, Some v
                when String.starts_with ~prefix:"mpde.precond." name
                     || name = "lu.dense_factors" ->
                  precond := (name, v) :: !precond
              | _ -> ())
          | _ -> ())
        events;
      let lane_order = List.rev !lane_order in
      (* Replay each lane's span stack: total = E.ts - B.ts, self =
         total minus time inside children. Top-level totals sum to the
         lane's busy time. *)
      let spans = Hashtbl.create 32 in
      let add_span name total self =
        let c, t, s =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt spans name)
        in
        Hashtbl.replace spans name (c + 1, t +. total, s +. self)
      in
      let lane_busy =
        List.map
          (fun key ->
            let evs = List.rev !(Hashtbl.find lanes key) in
            let busy = ref 0.0 in
            let stack = ref [] in
            List.iter
              (fun ev ->
                let ts =
                  Option.value ~default:0.0 (fnum "ts" ev) *. 1e-6
                in
                let name = Option.value ~default:"?" (fstr "name" ev) in
                match fstr "ph" ev with
                | Some "B" -> stack := (name, ts, ref 0.0) :: !stack
                | Some "E" -> (
                    match !stack with
                    | (n, ts0, child) :: rest ->
                        let total = ts -. ts0 in
                        let self = Float.max 0.0 (total -. !child) in
                        add_span n total self;
                        (match rest with
                        | (_, _, pchild) :: _ -> pchild := !pchild +. total
                        | [] -> busy := !busy +. total);
                        stack := rest
                    | [] -> ())
                | _ -> ())
              evs;
            (key, !busy))
          lane_order
      in
      let rfss = J.member "rfss" json in
      let rfss_num name =
        Option.bind rfss (fun r -> Option.bind (J.member name r) J.num)
      in
      let inferred_wall =
        if !ts_max > !ts_min then (!ts_max -. !ts_min) *. 1e-6 else 0.0
      in
      let wall, wall_src =
        match rfss_num "wall_seconds" with
        | Some w -> (w, "measured")
        | None -> (inferred_wall, "inferred from trace extent")
      in
      let domains =
        match rfss_num "domains" with
        | Some d -> int_of_float d
        | None -> max 1 (List.length lane_busy)
      in
      Printf.printf "trace: %s\n" file;
      Printf.printf "wall:  %s (%s)" (format_seconds wall) wall_src;
      (match (rfss_num "jobs", rfss_num "retries", rfss_num "degraded_jobs")
       with
      | Some j, Some r, Some d ->
          Printf.printf "  jobs=%.0f retries=%.0f degraded=%.0f" j r d
      | _ -> ());
      print_newline ();
      Printf.printf "lanes: %d\n" (List.length lane_busy);
      List.iter
        (fun ((pid, tid), busy) ->
          let name =
            Option.value ~default:"?" (Hashtbl.find_opt thread_names (pid, tid))
          in
          Printf.printf "  %-12s (pid %d, tid %d)  busy %-10s  utilization %3.0f%%\n"
            name pid tid (format_seconds busy)
            (if wall > 0.0 then 100.0 *. busy /. wall else 0.0))
        lane_busy;
      let all =
        Hashtbl.fold
          (fun name (c, t, s) acc -> (name, c, t, s) :: acc)
          spans []
        |> List.sort (fun (n1, _, _, s1) (n2, _, _, s2) ->
               match compare s2 s1 with 0 -> compare n1 n2 | c -> c)
      in
      let total_busy = List.fold_left (fun a (_, b) -> a +. b) 0.0 lane_busy in
      let total_self =
        List.fold_left (fun a (_, _, _, s) -> a +. s) 0.0 all
      in
      Printf.printf "top %d spans by self time:\n"
        (min top (List.length all));
      Printf.printf "  %-28s %8s %12s %12s %7s\n" "span" "calls" "total"
        "self" "share";
      List.iteri
        (fun i (name, calls, t, s) ->
          if i < top then
            Printf.printf "  %-28s %8d %12s %12s %6.1f%%\n" name calls
              (format_seconds t) (format_seconds s)
              (if total_busy > 0.0 then 100.0 *. s /. total_busy else 0.0))
        all;
      (match Option.bind rfss (J.member "gc") with
      | Some (J.Obj _ as g) ->
          let gnum name = Option.bind (J.member name g) J.num in
          Printf.printf
            "gc:    minor collections %.0f (p99 %s), major slices %.0f (p99 %s), lost events %.0f\n"
            (Option.value ~default:0.0 (gnum "minor_collections"))
            (format_seconds
               (Option.value ~default:0.0 (gnum "minor_pause_p99")))
            (Option.value ~default:0.0 (gnum "major_slices"))
            (format_seconds
               (Option.value ~default:0.0 (gnum "major_pause_p99")))
            (Option.value ~default:0.0 (gnum "lost_events"))
      | _ -> ());
      (* Which sweep-preconditioner path ran: pattern runs per build,
         shared (uniform) builds, blocks factored on a compiled
         schedule (refactors) and densely (lu.dense_factors), sweeps —
         a range when parts differ. *)
      if !precond <> [] then begin
        let names = List.sort_uniq compare (List.map fst !precond) in
        Printf.printf "precond:";
        List.iter
          (fun name ->
            let vs = List.filter_map (fun (n, v) -> if n = name then Some v else None) !precond in
            let lo = List.fold_left Float.min infinity vs
            and hi = List.fold_left Float.max neg_infinity vs in
            if lo = hi then Printf.printf " %s=%g" name lo
            else Printf.printf " %s=%g..%g" name lo hi)
          names;
        print_newline ()
      end;
      Printf.printf
        "accounting: span self %s = %.1f%% of lane busy %s; lane busy = %.1f%% of %d domains x wall\n"
        (format_seconds total_self)
        (if total_busy > 0.0 then 100.0 *. total_self /. total_busy else 0.0)
        (format_seconds total_busy)
        (if wall > 0.0 && domains > 0 then
           100.0 *. total_busy /. (float_of_int domains *. wall)
         else 0.0)
        domains;
      0

let envelope_cmd tele ((fixture : Serve.Catalog.t), f_fast, fd) n1 steps periods =
  with_telemetry tele @@ fun () ->
  let { Circuits.mna; _ } = fixture.build ~f_fast ~fd in
  let shear = Mpde.Shear.make ~fast_freq:f_fast ~slow_freq:fd in
  let sys = Mpde.Assemble.of_mna ~shear mna in
  let seed = Circuit.Dcop.solve_exn mna in
  let result =
    Mpde.Envelope_follow.run ~seed ~system:sys ~shear ~n1
      ~t2_stop:(periods /. fd) ~steps ()
  in
  Printf.printf "# converged=%b newton=%d\n" result.Mpde.Envelope_follow.converged
    result.Mpde.Envelope_follow.newton_iterations;
  let unknown = Circuit.Mna.node_index mna fixture.output_node in
  let env =
    Mpde.Envelope_follow.envelope_of result ~unknown ~mode:Mpde.Extract.Mean_t1
  in
  Printf.printf "t2,v\n";
  Array.iteri
    (fun s v -> Printf.printf "%.9e,%.6e\n" result.Mpde.Envelope_follow.t2_values.(s) v)
    env;
  if result.Mpde.Envelope_follow.converged then 0 else 1

(* The engine's MPDE solve, plus the two checks the engine leaves out
   (Health.probe): the κ estimate and the diagonal residual. *)
let health_cmd tele ((fixture : Serve.Catalog.t), f_fast, fd) n1 n2 budget_seconds
    max_newton =
  with_telemetry tele @@ fun () ->
  let problem = Serve.Catalog.problem_of fixture ~f_fast ~fd in
  let options =
    {
      Engine.Options.default with
      n1;
      n2;
      budget =
        Resilience.Budget.of_limits ?wall_seconds:budget_seconds ?max_newton ();
    }
  in
  let r = Engine.run problem (Engine.make ~options Engine.Mpde) in
  let sol = Option.get r.Engine.Result.mpde_solution in
  (* Fresh identically-built MNA for the node-index lookup only. *)
  let { Circuits.mna; _ } = fixture.build ~f_fast ~fd in
  let unknown = Circuit.Mna.node_index mna fixture.output_node in
  let health = Diagnostics.Health.probe sol ~unknown r.Engine.Result.health in
  print_endline (Diagnostics.Health.summary_line health);
  Printf.printf "convergence:        %s\n"
    (Diagnostics.Convergence.to_string health.Diagnostics.Health.convergence);
  Printf.printf "strategy:           %s\n" health.Diagnostics.Health.strategy;
  Printf.printf "start:              %s\n"
    (Mpde.Solver.start_name sol.Mpde.Solver.stats.Mpde.Solver.start);
  Printf.printf "newton iterations:  %d (linear %d)\n"
    health.Diagnostics.Health.newton_iterations
    health.Diagnostics.Health.linear_iterations;
  List.iter
    (fun (stage, iters) -> Printf.printf "  %-18s newton=%d\n" stage iters)
    health.Diagnostics.Health.stage_iterations;
  Printf.printf "residual norm:      %.3e\n"
    health.Diagnostics.Health.residual_norm;
  (match health.Diagnostics.Health.condition_estimate with
  | Some k -> Printf.printf "condition estimate: %.3e\n" k
  | None -> Printf.printf "condition estimate: unavailable\n");
  (match health.Diagnostics.Health.diagonal_residual with
  | Some d when Float.is_finite d ->
      Printf.printf "diagonal residual:  %.3e (node %s)\n" d fixture.output_node
  | Some _ -> Printf.printf "diagonal residual:  reference transient failed\n"
  | None -> ());
  Printf.printf "# report=%s\n"
    (Resilience.Report.to_json_string
       (Diagnostics.Health.attach health r.Engine.Result.report));
  ignore
    (Diagnostics.Health.to_registry ~registry:metrics_registry health);
  if health.Diagnostics.Health.converged then 0 else 1

type deck_analysis = Deck_dcop | Deck_transient | Deck_ac

let deck_cmd tele file analysis node t_stop steps f_start f_stop =
  with_telemetry tele @@ fun () ->
  let text =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Circuit.Spice_parser.parse_string text with
  | exception Circuit.Spice_parser.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" file line message;
      1
  | deck ->
      List.iter
        (fun w -> Printf.eprintf "warning: %s\n" w)
        deck.Circuit.Spice_parser.warnings;
      let mna = Circuit.Mna.build deck.Circuit.Spice_parser.netlist in
      Printf.printf "# %s (%d devices, %d unknowns)\n"
        deck.Circuit.Spice_parser.title
        (List.length (Circuit.Netlist.devices deck.Circuit.Spice_parser.netlist))
        (Circuit.Mna.size mna);
      (match analysis with
      | Deck_dcop ->
          let report = Circuit.Dcop.solve mna in
          Printf.printf "# dcop converged=%b\n" report.Circuit.Dcop.converged;
          Array.iteri
            (fun i name -> Printf.printf "%-16s %+.6e\n" name report.Circuit.Dcop.x.(i))
            (Circuit.Mna.unknown_names mna)
      | Deck_transient ->
          let result = Circuit.Transient.run ~mna ~t_stop ~steps () in
          Printf.printf "t,v(%s)\n" node;
          Array.iteri
            (fun k t ->
              Printf.printf "%.9e,%.6e\n" t
                (Circuit.Mna.voltage mna
                   result.Circuit.Transient.trace.Numeric.Integrator.states.(k)
                   node))
            result.Circuit.Transient.trace.Numeric.Integrator.times
      | Deck_ac ->
          let sweep =
            Circuit.Ac.Decade { f_start; f_stop; points_per_decade = 20 }
          in
          let r = Circuit.Ac.analyze mna sweep in
          let resp = Circuit.Ac.node_response mna r node in
          let mags = Circuit.Ac.magnitude_db resp in
          let phases = Circuit.Ac.phase_deg resp in
          Printf.printf "f,mag_db,phase_deg\n";
          Array.iteri
            (fun k f -> Printf.printf "%.6e,%.4f,%.3f\n" f mags.(k) phases.(k))
            r.Circuit.Ac.freqs);
      0

(* ---------- rfss serve: the persistent solve service ---------- *)

let serve_cmd listen workers cache_capacity warm_capacity =
  match Observe.Addr.parse listen with
  | Error e ->
      prerr_endline e;
      1
  | Ok addr -> (
      match
        Serve.Service.start ~workers ~cache_capacity ~warm_capacity addr
      with
      | Error e ->
          prerr_endline e;
          1
      | Ok svc ->
          let stop = Atomic.make false in
          let on_signal _ = Atomic.set stop true in
          Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
          Printf.printf "rfssd (%s) listening on %s workers=%d cache=%d\n%!"
            Serve.Protocol.version
            (Observe.Addr.to_string (Serve.Service.addr svc))
            workers cache_capacity;
          while not (Atomic.get stop) do
            Unix.sleepf 0.2
          done;
          prerr_endline "rfssd: shutting down";
          Serve.Service.stop svc;
          0)

(* ---------- rfss submit: one job against a running rfssd ---------- *)

let submit_cmd addr_spec kind ((fixture : Serve.Catalog.t), f_fast, fd) n1 n2
    tol max_newton budget_seconds no_warm =
  let module J = Telemetry.Json in
  match Observe.Addr.parse addr_spec with
  | Error e ->
      prerr_endline e;
      1
  | Ok addr -> (
      let int n = J.Num (float_of_int n) in
      let request =
        J.Obj
          ([
             ("v", J.Str Serve.Protocol.version);
             ("circuit", J.Str fixture.name);
             ("engine", J.Str (Engine.kind_name kind));
             ("f_fast", J.Num f_fast);
             ("fd", J.Num fd);
             ( "options",
               J.Obj
                 [
                   ("n1", int n1);
                   ("n2", int n2);
                   ("tol", J.Num tol);
                   ("max_newton", int max_newton);
                 ] );
           ]
          @ (match budget_seconds with
            | Some s -> [ ("budget", J.Obj [ ("wall_seconds", J.Num s) ]) ]
            | None -> [])
          @ if no_warm then [ ("warm", J.Bool false) ] else [])
      in
      match Observe.Client.post ~timeout:600.0 addr "/jobs" (J.to_string request) with
      | Error e ->
          prerr_endline e;
          1
      | Ok (200, _, body) ->
          print_string body;
          (* Exit status mirrors the stream: error event or a
             non-converged result fails the submission. *)
          let lines =
            String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
          in
          let verdict line =
            match J.parse line with
            | exception J.Parse_error _ -> Some 1
            | j -> (
                match Option.bind (J.member "event" j) J.str with
                | Some "error" -> Some 1
                | Some "result" -> (
                    match Option.bind (J.member "converged" j) J.bool with
                    | Some true -> Some 0
                    | _ -> Some 1)
                | _ -> None)
          in
          Option.value (List.find_map verdict lines) ~default:1
      | Ok (status, _, body) ->
          Printf.eprintf "HTTP %d from %s/jobs\n%s" status addr_spec body;
          1)

(* ---------- rfss scrape: one-shot fetch from a live server ---------- *)

let scrape_cmd addr_spec path validate =
  match Observe.Addr.parse addr_spec with
  | Error e ->
      prerr_endline e;
      1
  | Ok addr -> (
      match Observe.Client.get ~timeout:30.0 addr path with
      | Error e ->
          prerr_endline e;
          1
      | Ok (200, _, body) ->
          if validate then begin
            match Diagnostics.Registry.parse_prometheus body with
            | exception Failure e ->
                Printf.eprintf "invalid Prometheus exposition: %s\n" e;
                1
            | samples ->
                print_string body;
                Printf.eprintf "# scrape validated: %d samples\n"
                  (List.length samples);
                0
          end
          else begin
            print_string body;
            0
          end
      | Ok (status, _, body) ->
          Printf.eprintf "HTTP %d from %s%s\n%s" status addr_spec path body;
          1)

(* ---------- rfss top: live sweep dashboard ---------- *)

let top_cmd addr_spec interval once =
  let module J = Telemetry.Json in
  match Observe.Addr.parse addr_spec with
  | Error e ->
      prerr_endline e;
      1
  | Ok addr ->
      let tty = Unix.isatty Unix.stdout in
      let fetched_once = ref false in
      let recent = Queue.create () in
      let stream = ref None in
      let ensure_stream () =
        match !stream with
        | Some s when not (Observe.Client.closed s) -> Some s
        | _ -> (
            match Observe.Client.open_stream ~timeout:2.0 addr with
            | Ok s ->
                stream := Some s;
                Some s
            | Error _ -> None)
      in
      let drain_events () =
        match ensure_stream () with
        | None -> ()
        | Some s ->
            List.iter
              (fun line ->
                match J.parse line with
                | exception J.Parse_error _ -> ()
                | j ->
                    if J.member "event" j <> None then begin
                      Queue.add line recent;
                      while Queue.length recent > 8 do
                        ignore (Queue.pop recent)
                      done
                    end)
              (Observe.Client.poll_lines s)
      in
      let fnum path j = Option.bind (J.path path j) J.num in
      let fint path j =
        match fnum path j with
        | Some v -> Printf.sprintf "%.0f" v
        | None -> "--"
      in
      let fsec path j =
        match fnum path j with
        | Some v -> Printf.sprintf "%.1fs" v
        | None -> "--"
      in
      let render body =
        match J.parse body with
        | exception J.Parse_error _ -> print_endline (String.trim body)
        | j ->
            if tty then print_string "\027[2J\027[H";
            Printf.printf "rfss top — %s\n" addr_spec;
            Printf.printf
              "phase %-8s elapsed %-9s worst %-12s budget-left %s\n"
              (Option.value ~default:"?"
                 (Option.bind (J.member "phase" j) J.str))
              (fsec [ "elapsed_seconds" ] j)
              (Option.value ~default:"--"
                 (Option.bind (J.member "worst_health" j) J.str))
              (fsec [ "budget_remaining_seconds" ] j);
            Printf.printf
              "jobs  %s/%s done  %s in flight  %s failed  %s degraded  %s \
               retries  %s checkpoints\n"
              (fint [ "jobs"; "finished" ] j)
              (fint [ "jobs"; "total" ] j)
              (fint [ "jobs"; "in_flight" ] j)
              (fint [ "jobs"; "failed" ] j)
              (fint [ "jobs"; "degraded" ] j)
              (fint [ "jobs"; "retries" ] j)
              (fint [ "jobs"; "checkpoints" ] j);
            let rate =
              match fnum [ "jobs_per_second" ] j with
              | Some r -> Printf.sprintf "%.2f" r
              | None -> "--"
            in
            Printf.printf "rate  %s jobs/s   eta %s\n" rate
              (fsec [ "eta_seconds" ] j);
            (match J.member "workers" j with
            | Some (J.Arr ws) when ws <> [] ->
                Printf.printf "%-7s %-5s %-9s %-8s %-8s %s\n" "worker" "busy"
                  "done" "busy-s" "retries" "job";
                List.iter
                  (fun w ->
                    Printf.printf "%-7s %-5s %-9s %-8s %-8s %s\n"
                      (fint [ "worker" ] w)
                      (match Option.bind (J.member "busy" w) J.bool with
                      | Some true -> "yes"
                      | Some false -> "no"
                      | None -> "--")
                      (fint [ "jobs_done" ] w)
                      (match fnum [ "busy_seconds" ] w with
                      | Some v -> Printf.sprintf "%.2f" v
                      | None -> "--")
                      (fint [ "retries" ] w)
                      (Option.value ~default:"-"
                         (Option.bind (J.member "job" w) J.str)))
                  ws
            | _ -> ());
            if not (Queue.is_empty recent) then begin
              print_endline "recent events:";
              Queue.iter (fun l -> Printf.printf "  %s\n" l) recent
            end;
            flush stdout
      in
      let rec loop () =
        match Observe.Client.get ~timeout:2.0 addr "/healthz" with
        | Error e ->
            (* A server that answered at least once and then went away
               is a run that finished — normal exit, not an error. *)
            if !fetched_once then 0
            else begin
              prerr_endline e;
              1
            end
        | Ok (200, _, body) ->
            fetched_once := true;
            drain_events ();
            render body;
            if once then 0
            else begin
              Telemetry.Clock.sleep interval;
              loop ()
            end
        | Ok (status, _, _) ->
            Printf.eprintf "HTTP %d from %s/healthz\n" status addr_spec;
            1
      in
      let code = loop () in
      (match !stream with Some s -> Observe.Client.close_stream s | None -> ());
      code

(* ---------- cmdliner wiring ---------- *)

open Cmdliner

(* Counts (time steps, segments, harmonics, collocation and grid
   points) below what their solver needs are a usage error, not a
   solver crash or an empty answer: >= 1 for steps, segments and
   harmonics, >= 2 for periodic point sets. *)
let count ~min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer >= %d" s min))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let count_arg ~min name default docv doc =
  Arg.(value & opt (count ~min) default & info [ name ] ~docv ~doc)

let grid_arg name default doc = count_arg ~min:2 name default "N" doc

(* Durations and period counts: finite and > 0. *)
let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "%S is not a finite number > 0" s))
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

let circuit_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "c"; "circuit" ] ~docv:"NAME" ~doc:"Built-in circuit name (see $(b,rfss list)).")

let f_fast_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "fast" ] ~docv:"HZ" ~doc:"Fast (LO) fundamental frequency.")

let fd_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "fd" ] ~docv:"HZ" ~doc:"Difference (slow) frequency.")

let engine_kind =
  Arg.conv' ~docv:"NAME"
    ( Engine.kind_of_name,
      fun ppf k -> Format.pp_print_string ppf (Engine.kind_name k) )

(* --circuit, --fast and --fd resolved by Serve.Catalog.resolve, the
   validator rfss.jobs/1 uses too: an unknown circuit or a bad tone is
   a usage error (exit 124), like a bad grid size. [engine] brings the
   MPDE's fd < f_fast rule; [None] is for DC and transient. *)
let tones_arg engine =
  Term.(
    term_result' ~usage:true
      (const (fun engine circuit f_fast fd ->
           Serve.Catalog.resolve ?engine ?f_fast ?fd circuit)
      $ engine $ circuit_arg $ f_fast_arg $ fd_arg))

let no_engine = Term.const None

let mpde_engine = Term.const (Some Engine.Mpde)

let budget_seconds_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-seconds" ] ~docv:"S"
        ~doc:
          "Wall-clock budget for the whole solve (all escalation stages); on \
           exhaustion the best iterate so far is reported with an \
           $(i,exhausted) outcome instead of hanging.")

let max_newton_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-newton" ] ~docv:"N"
        ~doc:"Total Newton-iteration budget across all escalation stages.")

let telemetry_arg =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record solver telemetry and write the event trace to $(docv).")
  in
  let trace_format =
    let fmt_conv = Arg.enum [ ("jsonl", Jsonl); ("chrome", Chrome) ] in
    Arg.(
      value
      & opt fmt_conv Jsonl
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "Trace file format: $(b,jsonl) (one JSON event per line) or \
             $(b,chrome) (Chrome trace_event JSON for chrome://tracing or \
             Perfetto).")
  in
  let timings =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:"Print the hierarchical span timing summary to stderr after the run.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Export solver metrics (counters, gauges, histogram summaries, \
             span timings) to $(docv) after the run — Prometheus text \
             exposition format, or CSV when $(docv) ends in $(b,.csv).")
  in
  Term.(
    const (fun trace trace_format timings metrics ->
        { trace; trace_format; timings; metrics })
    $ trace $ trace_format $ timings $ metrics)

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve live introspection endpoints ($(b,/metrics), \
           $(b,/healthz), $(b,/events)) for the duration of the run. \
           $(docv) is a Unix socket path (contains $(b,/), or prefixed \
           $(b,unix:)) or $(b,HOST:PORT) ($(b,PORT) $(b,0) picks an \
           ephemeral port). Without this flag nothing is armed and the \
           hooks cost one atomic load per job.")

let list_term = Term.(const list_cmd $ const ())

let dcop_term =
  Term.(const dcop_cmd $ telemetry_arg $ tones_arg no_engine $ budget_seconds_arg $ max_newton_arg)

let transient_term =
  let t_stop =
    Arg.(value & opt (some positive_float) None & info [ "t-stop" ] ~docv:"S" ~doc:"Stop time.")
  in
  let steps = count_arg ~min:1 "steps" 1000 "N" "Fixed step count." in
  Term.(const transient_cmd $ telemetry_arg $ tones_arg no_engine $ t_stop $ steps)

let engine_period_arg =
  let period_conv =
    Arg.enum
      [
        ("fast", Engine.Problem.Fast_tone);
        ("difference", Engine.Problem.Difference_tone);
      ]
  in
  Arg.(
    value
    & opt period_conv Engine.Problem.Fast_tone
    & info [ "period" ] ~docv:"WHICH"
        ~doc:
          "Which fundamental the single-time engines lock onto: $(b,fast) \
           (one LO period) or $(b,difference) (the whole difference period — \
           the paper's §3 cost comparison; scale --steps with the disparity \
           to keep the fast tone resolved). Ignored by the MPDE engine.")

let solve_term =
  let engine =
    Arg.(
      value
      & opt engine_kind Engine.Shooting
      & info [ "engine" ] ~docv:"NAME"
          ~doc:
            "Steady-state engine: $(b,shooting), $(b,multiple-shooting), \
             $(b,hb), $(b,periodic-fd) or $(b,mpde).")
  in
  let steps = count_arg ~min:1 "steps" 256 "N" "Shooting steps per period." in
  let segments = count_arg ~min:1 "segments" 8 "N" "Multiple-shooting windows." in
  let harmonics = count_arg ~min:1 "harmonics" 8 "K" "HB harmonic count." in
  let points = count_arg ~min:2 "points" 64 "N" "Periodic-FD collocation points." in
  let n1 = grid_arg "n1" 32 "MPDE fast-scale points." in
  let n2 = grid_arg "n2" 24 "MPDE slow-scale points." in
  let tol =
    Arg.(value & opt float 1e-8 & info [ "tol" ] ~docv:"T" ~doc:"Residual infinity-norm target.")
  in
  Term.(
    const solve_cmd $ telemetry_arg $ listen_arg $ engine
    $ tones_arg (const Option.some $ engine)
    $ engine_period_arg $ steps $ segments $ harmonics
    $ points $ n1 $ n2 $ tol $ budget_seconds_arg $ max_newton_arg)

let sweep_term =
  let engines =
    Arg.(
      value
      & opt (list engine_kind) [ Engine.Mpde ]
      & info [ "engine" ] ~docv:"LIST"
          ~doc:
            "Comma-separated engines to sweep, e.g. $(b,mpde,shooting); each \
             runs every parameter value as its own job.")
  in
  let param =
    let param_conv =
      Arg.conv' ~docv:"SPEC"
        ( parse_param,
          fun ppf (name, values) ->
            Format.fprintf ppf "%s=%s" name
              (String.concat ","
                 (List.map (Printf.sprintf "%g") (Array.to_list values))) )
    in
    Arg.(
      required
      & opt (some param_conv) None
      & info [ "param" ] ~docv:"SPEC"
          ~doc:
            "Swept parameter: $(b,fd=START:STOP:lin|log:N) or \
             $(b,fast=v1,v2,...). $(b,fd) sweeps the difference tone, \
             $(b,fast) the LO fundamental.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel executor; defaults to the \
             $(b,DOMAINS) environment variable, then the machine's \
             recommended domain count. $(b,1) forces fully serial execution.")
  in
  let no_wall =
    Arg.(
      value & flag
      & info [ "no-wall" ]
          ~doc:
            "Omit wall-clock columns so two runs (e.g. serial vs parallel in \
             CI) can be compared byte-for-byte.")
  in
  let format =
    Arg.(
      value
      & opt (Arg.enum [ ("csv", Sweep_csv); ("json", Sweep_json) ]) Sweep_csv
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,csv) or $(b,json).")
  in
  let n1 = grid_arg "n1" 32 "MPDE fast-scale points." in
  let n2 = grid_arg "n2" 24 "MPDE slow-scale points." in
  let steps = count_arg ~min:1 "steps" 256 "N" "Shooting steps per period." in
  let tol =
    Arg.(value & opt float 1e-8 & info [ "tol" ] ~docv:"T" ~doc:"Residual infinity-norm target.")
  in
  let per_job_telemetry =
    Arg.(
      value & flag
      & info [ "per-job-telemetry" ]
          ~doc:
            "Enable a telemetry recorder around every job on its executing \
             domain (recorders are domain-local; without this, worker domains \
             record nothing).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Print a live progress line to stderr as jobs finish: \
             completed/total, percentage, elapsed, ETA and jobs/s.")
  in
  let fault_plan =
    let plan_conv =
      Arg.conv' ~docv:"SPEC"
        ( Resilience.Faultinject.parse,
          fun ppf p ->
            Format.pp_print_string ppf (Resilience.Faultinject.to_string p) )
    in
    Arg.(
      value
      & opt (some plan_conv) None
      & info [ "fault-plan" ] ~docv:"SPEC"
          ~doc:
            "Install a deterministic fault-injection plan for the run, e.g. \
             $(b,seed=7,nan@residual/newton:1,crash@job/#1:1). Items are \
             $(b,KIND@SITE[/FILTER]:TRIGGER[=MAG]) with kinds \
             nan/inf/singular/illcond/stall/crash/slow/kill, sites \
             residual/jacobian/gmres/newton/job, and triggers N, NxM or ~P.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL record per completed job to $(docv) (atomic \
             temp+rename), so a killed sweep can be resumed.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "With $(b,--checkpoint), skip jobs whose records are already in \
             the file (validated by hash) and re-render them byte-for-byte; \
             without it the file is truncated at start.")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going" ]
          ~doc:
            "Exit 0 even when jobs finished in error or degraded (the \
             pre-fault-tolerance behavior was to always exit 0).")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a transiently failing job (crash, exhausted budget slice) \
             up to $(docv) extra times with decorrelated-jitter backoff. \
             $(b,0) disables retry.")
  in
  let no_degrade =
    Arg.(
      value & flag
      & info [ "no-degrade" ]
          ~doc:
            "Disable the watchdog: do not grant a repeatedly failing job a \
             final attempt at coarser grid / looser tolerance.")
  in
  Term.(
    const sweep_cmd $ telemetry_arg $ listen_arg
    $ term_result' ~usage:true
        (const sweep_points $ tones_arg no_engine $ engines $ param)
    $ engine_period_arg $ domains $ no_wall
    $ format $ n1 $ n2 $ steps $ tol $ budget_seconds_arg $ max_newton_arg
    $ per_job_telemetry $ progress $ fault_plan $ checkpoint $ resume
    $ keep_going $ retries $ no_degrade)

let report_term =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Chrome trace JSON written by $(b,--trace FILE --trace-format \
             chrome) (a merged sweep trace or a single-solve trace).")
  in
  let top =
    Arg.(
      value & opt int 12
      & info [ "top" ] ~docv:"K" ~doc:"Spans to list in the self-time table.")
  in
  Term.(const report_cmd $ file $ top)

let mpde_term =
  let n1 = grid_arg "n1" 40 "Fast-scale points." in
  let n2 = grid_arg "n2" 30 "Slow-scale points." in
  let output =
    let kind_conv =
      Arg.enum
        [ ("envelope", Envelope); ("surface", Surface); ("diagonal", Diagonal); ("gain", Gain) ]
    in
    Arg.(value & opt kind_conv Envelope & info [ "output" ] ~docv:"KIND" ~doc:"What to print.")
  in
  Term.(
    const mpde_cmd $ telemetry_arg $ tones_arg mpde_engine $ n1 $ n2 $ output
    $ budget_seconds_arg $ max_newton_arg)

let envelope_term =
  let n1 = grid_arg "n1" 32 "Fast-scale points." in
  let steps = count_arg ~min:1 "steps" 48 "N" "Slow steps." in
  let periods =
    Arg.(
      value & opt positive_float 2.0
      & info [ "periods" ] ~docv:"X" ~doc:"Difference periods to march.")
  in
  Term.(const envelope_cmd $ telemetry_arg $ tones_arg mpde_engine $ n1 $ steps $ periods)

let deck_term =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SPICE deck.")
  in
  let analysis =
    let conv_analysis =
      Arg.enum [ ("dcop", Deck_dcop); ("transient", Deck_transient); ("ac", Deck_ac) ]
    in
    Arg.(value & opt conv_analysis Deck_dcop & info [ "analysis" ] ~docv:"KIND" ~doc:"Analysis to run.")
  in
  let node =
    Arg.(value & opt string "out" & info [ "node" ] ~docv:"NAME" ~doc:"Node to report.")
  in
  let t_stop =
    Arg.(value & opt positive_float 1e-3 & info [ "t-stop" ] ~docv:"S" ~doc:"Transient stop time.")
  in
  let steps = count_arg ~min:1 "steps" 1000 "N" "Transient steps." in
  let f_start = Arg.(value & opt float 1.0 & info [ "f-start" ] ~docv:"HZ" ~doc:"AC sweep start.") in
  let f_stop = Arg.(value & opt float 1e9 & info [ "f-stop" ] ~docv:"HZ" ~doc:"AC sweep stop.") in
  Term.(const deck_cmd $ telemetry_arg $ file $ analysis $ node $ t_stop $ steps $ f_start $ f_stop)

let top_addr_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ADDR"
        ~doc:
          "Address a running $(b,rfss sweep --listen)/$(b,rfss solve \
           --listen) is serving on: a Unix socket path or $(b,HOST:PORT).")

let top_term =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between refreshes.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Render one snapshot and exit (for scripts).")
  in
  Term.(const top_cmd $ top_addr_arg $ interval $ once)

let serve_term =
  let listen =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Address to serve rfss.jobs/1 on: a Unix socket path or \
             $(b,HOST:PORT) (port $(b,0) picks a free one).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Solver worker domains.")
  in
  let cache =
    Arg.(
      value & opt int 64
      & info [ "cache" ] ~docv:"N"
          ~doc:"Result-cache capacity (LRU entries).")
  in
  let warm =
    Arg.(
      value & opt int 16
      & info [ "warm" ] ~docv:"N"
          ~doc:"Warm-start store capacity (converged MPDE surfaces).")
  in
  Term.(const serve_cmd $ listen $ workers $ cache $ warm)

let submit_term =
  let engine =
    Arg.(
      value & opt engine_kind Engine.Mpde
      & info [ "engine" ] ~docv:"NAME"
          ~doc:"Engine: shooting, multiple-shooting, hb, periodic-fd or mpde.")
  in
  let n1 = grid_arg "n1" 32 "Fast-scale points." in
  let n2 = grid_arg "n2" 24 "Slow-scale points." in
  let tol =
    Arg.(value & opt float 1e-8 & info [ "tol" ] ~docv:"T" ~doc:"Residual target.")
  in
  let max_newton =
    Arg.(
      value & opt int 50
      & info [ "max-newton" ] ~docv:"N" ~doc:"Outer Newton cap per solve.")
  in
  let no_warm =
    Arg.(
      value & flag
      & info [ "no-warm" ]
          ~doc:
            "Do not seed this solve from (or contribute it to) the server's \
             warm-start surface store.")
  in
  Term.(
    const submit_cmd $ top_addr_arg $ engine
    $ tones_arg (const Option.some $ engine)
    $ n1 $ n2 $ tol $ max_newton $ budget_seconds_arg $ no_warm)

let scrape_term =
  let path =
    Arg.(
      value
      & opt string "/metrics"
      & info [ "path" ] ~docv:"PATH"
          ~doc:
            "Endpoint to fetch: $(b,/metrics), $(b,/healthz) or \
             $(b,/events) (the event stream is read until the server \
             closes it).")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Re-parse the body with the strict Prometheus text parser \
             and fail on any malformed line (only meaningful for \
             $(b,/metrics)).")
  in
  Term.(const scrape_cmd $ top_addr_arg $ path $ validate)

let health_term =
  let n1 = grid_arg "n1" 40 "Fast-scale points." in
  let n2 = grid_arg "n2" 30 "Slow-scale points." in
  Term.(
    const health_cmd $ telemetry_arg $ tones_arg mpde_engine $ n1 $ n2
    $ budget_seconds_arg $ max_newton_arg)

let cmds =
  [
    Cmd.v (Cmd.info "list" ~doc:"List built-in circuits.") list_term;
    Cmd.v
      (Cmd.info "deck" ~doc:"Parse a SPICE deck and run DC / transient / AC analysis.")
      deck_term;
    Cmd.v (Cmd.info "dcop" ~doc:"DC operating point.") dcop_term;
    Cmd.v (Cmd.info "transient" ~doc:"Time-stepping transient analysis (CSV).") transient_term;
    Cmd.v
      (Cmd.info "solve"
         ~doc:
           "Run any steady-state engine through the unified Engine API: one \
            result shape (waveform CSV, RF metrics, health, report) \
            regardless of backend.")
      solve_term;
    Cmd.v
      (Cmd.info "sweep"
         ~doc:
           "Parameter sweep executed in parallel on OCaml 5 domains: every \
            (engine, parameter value) pair is one job; results are emitted \
            in deterministic job order (CSV or JSON).")
      sweep_term;
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Wall-time attribution from a recorded Chrome trace: per-lane \
            (per-domain) busy time and utilization, top spans by self time, \
            GC pause percentiles, and an accounting line tying span \
            self-times back to the measured wall.")
      report_term;
    Cmd.v
      (Cmd.info "mpde"
         ~doc:"Bi-periodic MPDE on sheared difference-frequency time scales (CSV).")
      mpde_term;
    Cmd.v (Cmd.info "envelope" ~doc:"Envelope-following MPDE along the slow scale (CSV).") envelope_term;
    Cmd.v
      (Cmd.info "health"
         ~doc:
           "Solve the MPDE and report numerical health: convergence class, \
            per-stage Newton iterations, Jacobian condition estimate, and \
            diagonal-consistency residual.")
      health_term;
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Live dashboard for a run served with $(b,--listen): per-domain \
            utilization, job counts, retry/degrade totals, rate and ETA, \
            refreshed from $(b,/healthz) and $(b,/events).")
      top_term;
    Cmd.v
      (Cmd.info "scrape"
         ~doc:
           "Fetch one introspection endpoint from a live run and print the \
            body to stdout; $(b,--validate) re-parses $(b,/metrics) with \
            the strict Prometheus parser.")
      scrape_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run rfssd, the persistent solve service: accepts rfss.jobs/1 \
            requests on $(b,POST /jobs), executes them on worker domains, \
            replays repeated jobs from a canonical-key result cache, and \
            warm-starts cache-near MPDE solves from converged surfaces.")
      serve_term;
    Cmd.v
      (Cmd.info "submit"
         ~doc:
           "Submit one solve to a running $(b,rfss serve) instance and \
            stream the JSONL response (accepted / result / done) to stdout. \
            Exit status reflects convergence.")
      submit_term;
  ]

let () =
  let info =
    Cmd.info "rfss" ~version:"1.0.0"
      ~doc:"Time-domain RF steady state for closely spaced tones (MPDE)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
