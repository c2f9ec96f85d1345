type job = { label : string; problem : Problem.t; engine : Backend.t }

let job ?label ?(options = Options.default) ~kind problem =
  let label =
    match label with
    | Some l -> l
    | None -> problem.Problem.label ^ ":" ^ Backend.kind_name kind
  in
  { label; problem; engine = Backend.make ~options kind }

type failure = {
  message : string;
  backtrace : string option;
  stage : string option;
}

let failure_to_string f =
  match f.stage with
  | None -> f.message
  | Some s -> Printf.sprintf "%s [stage %s]" f.message s

type outcome = {
  index : int;
  job : job;
  result : (Backend.Result.t, failure) Stdlib.result;
  wall_seconds : float;
  attempts : int;
  degraded : bool;
  worker : int;
  anchor : int option;
  trace : (float * Telemetry.snapshot) option;
}

let retries o = o.attempts - 1

let default_domains () = Domain.recommended_domain_count ()

(* Enable a throwaway recorder on the executing domain for the span of
   one job, unless one is already live there (serial sweeps under
   [rfss --trace] keep the caller's recorder; Backend.run's
   [mark]/[snapshot ~since] isolation still scopes the summary to the
   job). *)
let with_job_telemetry want f =
  if (not want) || Telemetry.enabled () then f ()
  else begin
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable f
  end

(* Plain class name for the introspection plane (Convergence.to_string
   embeds the linear rate / rescue stage, which event consumers would
   have to re-parse). *)
let health_class = function
  | Diagnostics.Convergence.Quadratic -> "quadratic"
  | Diagnostics.Convergence.Linear _ -> "linear"
  | Diagnostics.Convergence.Stagnating -> "stagnating"
  | Diagnostics.Convergence.Diverging -> "diverging"
  | Diagnostics.Convergence.Rescued _ -> "rescued"
  | Diagnostics.Convergence.Insufficient_data -> "insufficient-data"

(* Warm-start group of a job: an MPDE job that brings no surface of its
   own, keyed by its circuit's structure and grid — the jobs whose
   converged surfaces fit one another. A build that raises leaves the
   job ungrouped, to fail in its own slot. *)
let group_key (j : job) =
  let o = j.engine.Backend.options in
  if j.engine.Backend.kind <> Backend.Mpde || o.Options.initial_surface <> None
  then None
  else
    match Problem.digest j.problem with
    | digest -> Some (digest, o.Options.n1, o.Options.n2)
    | exception _ -> None

let map_options f (j : job) =
  { j with engine = { j.engine with Backend.options = f j.engine.Backend.options } }

let deadline_open = function
  | None -> true
  | Some d -> Telemetry.Clock.wall () < d

(* Fresh per-attempt budget: standalone counters (cross-domain sharing
   would race), wall headroom measured against the sweep deadline at
   attempt start — so a retry gets only what is left, not a fresh
   slice — chained onto the job's own pre-existing budget which lives
   on this same domain. *)
let engine_for ~deadline ~max_newton_per_job (j : job) =
  if deadline = None && max_newton_per_job = None then j.engine
  else
    let wall_left =
      Option.map (fun d -> Float.max 0.0 (d -. Telemetry.Clock.wall ())) deadline
    in
    let budget =
      Resilience.Budget.make ?wall_seconds:wall_left
        ?max_newton:max_newton_per_job
        ?parent:j.engine.Backend.options.Options.budget ()
    in
    (map_options (Options.with_budget (Some budget)) j).engine

let run_job ?deadline ?max_newton_per_job ?(per_job_telemetry = false)
    ?(per_job_trace = false) ?(retry = Resilience.Retry.none) ?on_outcome
    ?(publish = true) ?seed index (j : job) =
  let t0 = Telemetry.Clock.wall () in
  let worker = Pool.worker_index () in
  if publish then Observe.Publish.job_started ~job:j.label ~worker;
  (* One fault-injection scope per attempt: occurrence counters reset
     on retry (a [crash@job:1] fault is transient — it hits attempt 1
     and spares attempt 2), and the scope key lets a plan target one
     job ("fd=8000"), one attempt ("#1"), or the degraded pass ("#d").
     A seeded solve that does not converge is re-solved from DC in the
     same scope, so a one-shot fault that sank the seeded solve spares
     the cold one. A seed that already meets the residual tolerance
     needs no re-solve: the solver takes a Newton step from any
     surface, and that step lands far inside the tolerance, where the
     cold solve's last one does. Returns whether the seed was kept. *)
  let one_attempt ~scope_key ~surface (j : job) =
    Resilience.Faultinject.with_scope ~key:scope_key (fun () ->
        let failure e =
          (* Called first thing in a handler, before any other code
             runs and overwrites the trace. *)
          let backtrace =
            if Printexc.backtrace_status () then
              match Printexc.get_backtrace () with
              | "" -> None
              | bt -> Some bt
            else None
          in
          Error
            {
              message = Printexc.to_string e;
              backtrace;
              stage = Resilience.Faultinject.last_stage ();
            }
        in
        let solve (j : job) =
          try
            with_job_telemetry per_job_telemetry (fun () ->
                Ok
                  (Backend.run j.problem
                     (engine_for ~deadline ~max_newton_per_job j)))
          with e -> failure e
        in
        match Resilience.Faultinject.fire_point Resilience.Faultinject.Job with
        | exception e -> (failure e, false)
        | () -> (
            match surface with
            | Some surface -> (
                match
                  solve
                    (map_options
                       (fun o -> { o with Options.initial_surface = Some surface })
                       j)
                with
                | Ok r as seeded when r.Backend.Result.converged -> (seeded, true)
                | _ -> (solve j, false))
            | None -> (solve j, false)))
  in
  (* Transient: worth retrying unchanged — a crash (injected or real)
     or a budget slice that ran out. Deterministic non-convergence
     (stall, divergence) is not transient; retrying the identical
     computation reproduces it bitwise. *)
  let transient = function
    | Error _ -> true
    | Ok r -> (
        (not r.Backend.Result.converged)
        &&
        match r.Backend.Result.report.Resilience.Report.outcome with
        | Resilience.Report.Exhausted _ -> true
        | _ -> false)
  in
  let failed = function
    | Error _ -> true
    | Ok r -> not r.Backend.Result.converged
  in
  let rec attempt_loop n prev_delay =
    let result, seeded =
      one_attempt
        ~scope_key:(j.label ^ "#" ^ string_of_int n)
        ~surface:(Option.map snd seed) j
    in
    if transient result && n < retry.Resilience.Retry.max_attempts
       && deadline_open deadline
    then begin
      let delay =
        Resilience.Retry.backoff retry ~salt:j.label ~attempt:n ~prev:prev_delay
      in
      if publish then Observe.Publish.retry ~job:j.label ~worker ~attempt:n ~delay;
      Resilience.Retry.sleep delay;
      attempt_loop (n + 1) delay
    end
    else (result, seeded, n)
  in
  let compute () =
    let result, seeded, attempts = attempt_loop 1 0.0 in
    (* Watchdog: a job that failed every regular attempt gets one final
       try at degraded options instead of poisoning the sweep. The
       demotion is only kept if it actually rescued the job. The
       coarser grid does not fit the seed, so it runs cold. *)
    let result, degraded =
      if retry.Resilience.Retry.degrade && failed result && deadline_open deadline
      then begin
        if publish then Observe.Publish.degraded ~job:j.label ~worker;
        let d_result, _ =
          one_attempt ~scope_key:(j.label ^ "#d") ~surface:None
            (map_options Options.degrade j)
        in
        if failed d_result then (result, false) else (d_result, true)
      end
      else (result, false)
    in
    (result, seeded && not degraded, attempts, degraded)
  in
  (* Trace capture spans the whole job — every attempt, backoff and the
     degraded pass — on the executing domain. When a recorder is
     already live there (serial sweep under [rfss --trace]) the job's
     slice is windowed out of it with [mark]/[snapshot ~since];
     otherwise a throwaway recorder wraps the job. Either way span
     timestamps stay relative to that recorder's enable instant, which
     [Telemetry.enabled_at] reports as the base for merging. *)
  let (result, seeded, attempts, degraded), trace =
    if not per_job_trace then (compute (), None)
    else
      with_job_telemetry true (fun () ->
          let since = Telemetry.mark () in
          let r = compute () in
          let base = Option.value ~default:t0 (Telemetry.enabled_at ()) in
          (r, Option.map (fun s -> (base, s)) (Telemetry.snapshot ~since ())))
  in
  let outcome =
    {
      index;
      job = j;
      result;
      wall_seconds = Telemetry.Clock.wall () -. t0;
      attempts;
      degraded;
      worker;
      anchor = (if seeded then Option.map fst seed else None);
      trace;
    }
  in
  (* Runs on the executing domain, concurrently across jobs: the
     checkpoint writer serializes internally. It runs before the
     job_finished event, so whoever that event wakes (the service's
     HTTP loop, streaming the result line) finds the record written. *)
  (match on_outcome with Some f when publish -> f outcome | _ -> ());
  (* The armed check here costs one atomic load when no listener is
     watching. Status follows checkpoint-record semantics,
     except that an unconverged Ok is "failed" (the checkpoint encodes
     that in a separate [converged] column). *)
  if publish && Observe.Publish.armed () then begin
    let status, health =
      match result with
      | Error _ -> ("error", Some "failed")
      | Ok r ->
          let health =
            health_class
              r.Backend.Result.health.Diagnostics.Health.convergence
          in
          if not r.Backend.Result.converged then ("failed", Some health)
          else if degraded then ("degraded", Some health)
          else ("ok", Some health)
    in
    Observe.Publish.job_finished ~job:j.label ~worker ~status ~health
      ~wall_seconds:outcome.wall_seconds ~attempts
  end;
  outcome

let run ?domains ?wall_seconds ?max_newton_per_job
    ?(per_job_telemetry = false) ?(per_job_trace = false)
    ?(retry = Resilience.Retry.none) ?(completed = fun _ -> false) ?on_outcome
    jobs =
  let n = Array.length jobs in
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let deadline =
    Option.map (fun s -> Telemetry.Clock.wall () +. s) wall_seconds
  in
  let pending = Array.init n (fun i -> not (completed i)) in
  Observe.Publish.run_started ?deadline ~domains ~phase:"sweep"
    ~total:(Array.fold_left (fun k p -> if p then k + 1 else k) 0 pending)
    ();
  (* Anchors: the first job of each warm-start group, in input order —
     completed jobs included, so a resumed sweep picks the anchors the
     uninterrupted one did. [anchor.(i)] is i's anchor (i itself for
     an anchor), -1 for an ungrouped job. *)
  let keys = Array.map group_key jobs in
  let anchor = Array.make n (-1) in
  let firsts = Hashtbl.create 8 in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some k -> (
          match Hashtbl.find_opt firsts k with
          | Some a -> anchor.(i) <- a
          | None ->
              Hashtbl.add firsts k i;
              anchor.(i) <- i))
    keys;
  let dependent i = anchor.(i) >= 0 && anchor.(i) <> i in
  (* A completed anchor is re-solved, silently, when a pending job
     needs its surface: the solve is deterministic, so the surface is
     bitwise the one the interrupted run seeded from. *)
  let needed = Array.make n false in
  Array.iteri
    (fun i p -> if p && dependent i then needed.(anchor.(i)) <- true)
    pending;
  let phase1 i = (not (dependent i)) && (pending.(i) || needed.(i)) in
  let phase2 i = pending.(i) && dependent i in
  (* Static placement under tracing: job → lane must be a pure function
     of the index for two traced runs to merge identically, so each
     phase maps the whole index range and skips the other phase's jobs
     — job i runs on lane i mod domains in either. Otherwise a phase
     maps only its own jobs, and runs no more lanes than it has jobs.
     An anchor a resumed sweep re-solves only to seed its pending
     dependents is not published. *)
  let run_phase member seed_of =
    let go i =
      run_job ?deadline ?max_newton_per_job ~per_job_telemetry ~per_job_trace
        ~retry ?on_outcome ~publish:pending.(i) ?seed:(seed_of i) i jobs.(i)
    in
    if per_job_trace then
      Pool.map ~assign:`Static ~domains
        (fun i -> if member i then Some (go i) else None)
        (Array.init n Fun.id)
      |> Array.to_list |> List.filter_map Fun.id
    else
      List.init n Fun.id |> List.filter member |> Array.of_list
      |> Pool.map ~domains go |> Array.to_list
  in
  (* Spawned workers always start with an empty per-domain solver
     workspace slot, but worker 0 is the calling domain, whose slot
     survives from whatever ran before. Clearing it makes every worker
     start the sweep cold — two identical sweeps produce identical
     reuse counters (and therefore identical traces) regardless of what
     the caller solved earlier. *)
  Backend.reset_workspace_slot ();
  let first = run_phase phase1 (fun _ -> None) in
  (* Phase 2 seeds each dependent from the nearest converged anchor of
     its group. Seeds are chosen here, on the calling domain, from the
     job list alone — never from completion order — so waveforms are
     bitwise equal across domain counts. *)
  let second =
    if not (List.exists phase2 (List.init n Fun.id)) then []
    else begin
      let store = Warm.create ~capacity:(Hashtbl.length firsts) in
      List.iter
        (fun o ->
          match (keys.(o.index), o.result) with
          | Some (digest, n1, n2), Ok r
            when anchor.(o.index) = o.index && r.Backend.Result.converged
                 && not o.degraded -> (
              match r.Backend.Result.mpde_solution with
              | Some sol ->
                  let p = o.job.problem in
                  Warm.offer store ~digest ~n1 ~n2 ~f_fast:p.Problem.f_fast
                    ~fd:p.Problem.fd sol.Mpde.Solver.big_x
              | None -> ())
          | _ -> ())
        first;
      let seeds =
        Array.init n (fun i ->
            match keys.(i) with
            | Some (digest, n1, n2) when phase2 i ->
                let p = jobs.(i).problem in
                Option.map
                  (fun surface -> (anchor.(i), surface))
                  (Warm.nearest store ~digest ~n1 ~n2
                     ~f_fast:p.Problem.f_fast ~fd:p.Problem.fd)
            | _ -> None)
      in
      run_phase phase2 (fun i -> seeds.(i))
    end
  in
  Observe.Publish.run_finished ();
  List.filter (fun o -> pending.(o.index)) (first @ second)
  |> List.sort (fun a b -> compare a.index b.index)
  |> Array.of_list
