(* disparity-sweep: Engine.Sweep.run, retry armed, over a seeded
   20-job list — unbalanced-mixer disparities solved by MPDE and by
   shooting across the difference period (the paper's §3 cost
   comparison) plus Gilbert-cell MPDE jobs — in passes on one domain
   and on every core. *)

module J = Diagnostics.Json_min
module W = Circuit.Waveform

let name = "disparity-sweep"

let build (j : Gen.sweep_job) () =
  match j.Gen.circuit with
  | Gen.Unbalanced_mixer ->
      Circuits.unbalanced_mixer ~f_lo:j.Gen.f_fast
        ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(j.Gen.f_fast +. j.Gen.fd) ())
        ~rf_amplitude:0.05 ()
  | Gen.Gilbert_mixer ->
      Circuits.gilbert_mixer ~f_lo:j.Gen.f_fast
        ~rf_signal:(W.cosine ~amplitude:1.0 ~freq:(j.Gen.f_fast +. j.Gen.fd) ())
        ~rf_amplitude:0.02 ()

let job (j : Gen.sweep_job) =
  let output, output_b =
    match j.Gen.circuit with
    | Gen.Unbalanced_mixer -> ("out", None)
    | Gen.Gilbert_mixer ->
        let n = Circuits.gilbert_mixer_nodes in
        (n.Circuits.out_plus, Some n.Circuits.out_minus)
  in
  let problem =
    Engine.Problem.make ~label:j.Gen.label ~period:Engine.Problem.Difference_tone ~output
      ?output_b ~f_fast:j.Gen.f_fast ~fd:j.Gen.fd (build j)
  in
  Engine.Sweep.job ~label:j.Gen.label ~options:j.Gen.options ~kind:j.Gen.kind problem

(* The answer of each job, bit for bit: convergence and waveform. *)
let signature (outcomes : Engine.Sweep.outcome array) =
  Array.map
    (fun (o : Engine.Sweep.outcome) ->
      match o.Engine.Sweep.result with
      | Error _ -> None
      | Ok r ->
          Some
            ( r.Engine.Result.converged,
              Array.map Int64.bits_of_float r.Engine.Result.waveform.Engine.Result.values ))
    outcomes

let outcome_errors (o : Engine.Sweep.outcome) =
  match o.Engine.Sweep.result with
  | Error f ->
      [
        Printf.sprintf "%s: %s" o.Engine.Sweep.job.Engine.Sweep.label
          (Engine.Sweep.failure_to_string f);
      ]
  | Ok r ->
      Harness.expect r.Engine.Result.converged
        (o.Engine.Sweep.job.Engine.Sweep.label ^ ": did not converge")

(* What a run keeps of a pass. The outcomes themselves are checked and
   dropped, so a run's memory does not grow with its pass count. *)
type pass = {
  domains : int;
  wall : float;
  cpu : float;  (** process CPU seconds, every domain *)
  job_walls : float array;
  retries : int;
}

let sweep ?(per_job_trace = false) jobs domains =
  let cpu0 = Harness.cpu_now () in
  let outcomes, wall =
    Harness.time (fun () ->
        Engine.Sweep.run ~domains ~per_job_trace ~retry:Resilience.Retry.default jobs)
  in
  ( outcomes,
    {
      domains;
      wall;
      cpu = Harness.cpu_now () -. cpu0;
      job_walls = Array.map (fun (o : Engine.Sweep.outcome) -> o.Engine.Sweep.wall_seconds) outcomes;
      retries = Array.fold_left (fun a o -> a + Engine.Sweep.retries o) 0 outcomes;
    } )

let busy p = Array.fold_left ( +. ) 0.0 p.job_walls

(* Scheduling metrics, medians over the all-core passes. *)
let schedule_metrics ~cores ~serial ~parallel =
  let med f ps = Stats.median (Array.of_list (List.map f ps)) in
  let serial_wall = med (fun p -> p.wall) serial and parallel_wall = med (fun p -> p.wall) parallel in
  let jobs = match parallel with p :: _ -> Array.length p.job_walls | [] -> 0 in
  let capacity p = float_of_int p.domains *. p.wall in
  [
    ("engine.sweep.jobs_per_s_serial", float_of_int jobs /. serial_wall);
    ( "engine.sweep.scaling_eff",
      (* nan, reported as unmeasurable, where one core cannot scale *)
      if cores < 2 then Float.nan else serial_wall /. (float_of_int cores *. parallel_wall) );
    ("engine.sweep.utilization", med (fun p -> busy p /. capacity p) parallel);
    ("engine.sweep.idle_s", med (fun p -> capacity p -. busy p) parallel);
    ("engine.sweep.job_s_max", med (fun p -> Array.fold_left Float.max 0.0 p.job_walls) parallel);
    ( "engine.sweep.retries",
      float_of_int (List.fold_left (fun a p -> a + p.retries) 0 (serial @ parallel)) );
  ]

(* The sweep layer's fixed cost: two trivial jobs (rc, 8x6) on every
   core, median of five. *)
let fixed_overhead ~cores =
  let fixture = Result.get_ok (Serve.Catalog.find "rc") in
  let jobs =
    Array.init 2 (fun k ->
        Engine.Sweep.job
          ~label:(Printf.sprintf "rc %d" k)
          ~options:{ Engine.Options.default with n1 = 8; n2 = 6 }
          ~kind:Engine.Mpde
          (Serve.Catalog.problem_of fixture ~f_fast:fixture.Serve.Catalog.default_fast
             ~fd:fixture.Serve.Catalog.default_fd))
  in
  Stats.median (Array.init 5 (fun _ -> (snd (sweep jobs cores)).wall))

(* Trace parts of a per_job_trace pass: one lane per domain. *)
let trace_parts outcomes =
  Array.to_list outcomes
  |> List.filter_map (fun (o : Engine.Sweep.outcome) ->
         Option.map
           (fun (base, snapshot) ->
             {
               Telemetry.Merge.pid = Unix.getpid ();
               tid = o.Engine.Sweep.worker + 1;
               thread_name = Printf.sprintf "domain-%d" o.Engine.Sweep.worker;
               label = Some o.Engine.Sweep.job.Engine.Sweep.label;
               base;
               snapshot;
             })
           o.Engine.Sweep.trace)

let run (cfg : Harness.config) =
  let ck = Harness.checks () in
  let monitor = if cfg.Harness.trace then Telemetry.Runtime.start () else None in
  let cores = Harness.domains () in
  let points, gilberts, max_disparity = if cfg.Harness.toy then (1, 0, 40.0) else (8, 4, 1000.0) in
  (* Every job must converge, and every pass must reproduce the run's
     first pass bit for bit, whatever its domain count. *)
  let reference = ref None in
  let check ~domains outcomes =
    Array.iter (fun o -> Harness.record ck (outcome_errors o)) outcomes;
    let sg = signature outcomes in
    match !reference with
    | None -> reference := Some sg
    | Some r ->
        Harness.record ck
          (Harness.expect (r = sg)
             (Printf.sprintf "waveforms on %d domains differ from the first pass" domains))
  in
  (* Set-up: generate and build the job list, then one warm-up pass on
     every core (worker domains spawn, heaps grow). Eleven: one set-up
     ranged from 0.37 to 1.0 s within a run, and the median of five
     moved by 15 % between two sets of ten runs. *)
  let specs = Gen.sweep_jobs ~max_disparity ~seed:cfg.Harness.seed ~points ~gilberts () in
  let (jobs, (warm_up, _)), setup =
    Harness.setup_repeated cfg ~reps:11
      ~dispose:(fun (_, (outcomes, _)) -> check ~domains:cores outcomes)
      (fun () ->
        let jobs = Array.map job specs in
        (jobs, sweep jobs cores))
  in
  check ~domains:cores warm_up;
  let n = Array.length jobs in
  (* An untraced run measures all-core passes after one single-domain
     pass, which the bitwise check compares them with; a traced run
     alternates the two for the scaling metrics, and keeps part of its
     time for the traced pass. Either ends on a whole pair, so there is
     always an all-core pass. *)
  let passes = ref [] in
  let l =
    Harness.timed_loop ~cycle:2
      ~seconds:(if cfg.Harness.trace then 0.6 *. cfg.Harness.seconds else cfg.Harness.seconds)
      ~op:(fun k -> sweep jobs (if (k = 0 || cfg.Harness.trace) && k mod 2 = 0 then 1 else cores))
      ~after:(fun _ (outcomes, p) ->
        check ~domains:p.domains outcomes;
        passes := p :: !passes)
      ()
  in
  (* Each pass with its probe; on one core every pass is both serial
     and all-core. *)
  let probed = List.combine (List.rev !passes) (Array.to_list l.Harness.probes) in
  let on domains = List.filter (fun (p, _) -> p.domains = domains) probed in
  let serial = List.map fst (on 1) and parallel = List.map fst (on cores) in
  let parallel_probes = Array.of_list (List.map snd (on cores)) in
  let walls ps = Array.of_list (List.map (fun p -> p.wall) ps) in
  if not cfg.Harness.trace then
    Harness.report ck
      (Harness.end_to_end ~latency:(Harness.scaled_latency (walls parallel) parallel_probes) ~setup)
  else begin
    (* One traced all-core pass, every job under its own recorder
       (per_job_trace), over every MPDE job and the four shortest
       shooting jobs: tracing a 10 000-step shooting job records about
       a million spans and more than doubles its time. *)
    let shooting_steps i =
      if specs.(i).Gen.kind = Engine.Shooting then
        specs.(i).Gen.options.Engine.Options.steps_per_period
      else 0
    in
    let long_shooting =
      List.init n Fun.id
      |> List.filter (fun i -> shooting_steps i > 0)
      |> List.sort (fun a b -> compare (shooting_steps b) (shooting_steps a))
      |> List.filteri (fun k _ -> k < points - 4)
    in
    let traced_idx =
      Array.of_list (List.filter (fun i -> not (List.mem i long_shooting)) (List.init n Fun.id))
    in
    let outcomes, tp = sweep ~per_job_trace:true (Array.map (fun i -> jobs.(i)) traced_idx) cores in
    Array.iter (fun o -> Harness.record ck (outcome_errors o)) outcomes;
    let sg = signature outcomes in
    Harness.record ck
      (Harness.expect
         (match !reference with
         | Some r -> Array.for_all Fun.id (Array.mapi (fun k i -> r.(i) = sg.(k)) traced_idx)
         | None -> false)
         "traced waveforms differ from the untraced passes");
    (* Tracing overhead, job by job against the same jobs' median wall
       in the untraced all-core passes. *)
    let twin i = Stats.median (Array.of_list (List.map (fun p -> p.job_walls.(i)) parallel)) in
    let untraced_twins = Array.fold_left (fun a i -> a +. twin i) 0.0 traced_idx in
    let parts = trace_parts outcomes in
    List.iter
      (fun (p : Telemetry.Merge.part) -> Harness.record ck (Layers.identity_errors p.snapshot))
      parts;
    Harness.write_trace cfg ~workload:name
      ~summary:
        [
          ("schema", J.Str "rfssbench.trace/1");
          ("workload", J.Str name);
          ("wall_seconds", J.Num tp.wall);
          ("domains", J.Num (float_of_int cores));
        ]
      parts;
    let kernels =
      match
        Array.find_map
          (fun (o : Engine.Sweep.outcome) ->
            match o.Engine.Sweep.result with Ok r -> r.Engine.Result.mpde_solution | Error _ -> None)
          outcomes
      with
      | Some sol -> Probe.kernels sol
      | None -> []
    in
    Harness.report ck
      (Layers.solver_metrics
         (List.map (fun (p : Telemetry.Merge.part) -> Telemetry.Summary.of_snapshot p.snapshot) parts)
         ~op_wall:(busy tp)
      @ kernels
      @ schedule_metrics ~cores ~serial ~parallel
      @ [ ("engine.sweep.fixed_overhead_s", fixed_overhead ~cores) ]
      @ Harness.gc_metrics monitor ~ops:(n * (List.length !passes + 6))
      @ Harness.resource_metrics
          ~cpu_per_op:(Stats.median (Array.of_list (List.map (fun p -> p.cpu /. float_of_int n) parallel)))
      @ Harness.host_metrics ~walls:(walls parallel) ~probes:parallel_probes
      @ [
          ("bench.gen_late_p99_s", Stats.quantile l.Harness.gaps 0.99);
          ("bench.trace_overhead_frac", (busy tp /. untraced_twins) -. 1.0);
          ("bench.op_s_p90", Stats.quantile (walls parallel) 0.9);
          ("bench.ops_traced", float_of_int (List.length parts));
        ])
  end
