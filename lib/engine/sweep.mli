(** Parameter sweeps over {!Backend.run}, executed in parallel on
    OCaml 5 domains, with warm-started MPDE jobs, per-job retry and
    watchdog degradation.

    A sweep is an array of jobs — each a (problem, engine) pair — run
    through {!Pool.map}. Results come back in job order regardless of
    scheduling, so a parallel sweep is sample-for-sample comparable
    with a serial one; with deterministic backends the waveforms are
    bitwise equal. Every job is solved by {!run_job}, which the solve
    service also calls for each request it solves: served and swept
    jobs share one seeding rule with its cold fallback, one verdict
    and one event stream.

    Warm starts: an MPDE job whose options carry no [initial_surface]
    belongs to a group keyed by its circuit's structural digest
    ({!Problem.digest}) and its grid [(n1, n2)]. The first job of each
    group, in input order, is the group's {e anchor}. The sweep runs
    in two phases, each one {!Pool.map}: phase 1 runs the anchors and
    every ungrouped job (other engines, jobs with a surface of their
    own, jobs whose build raises); phase 2 runs the rest, each seeded
    with the {!Warm.nearest} converged anchor surface of its group, and
    records that anchor in [outcome.anchor]. Which seed a job gets
    depends only on the job list, never on scheduling, so waveforms
    stay bitwise equal across domain counts. A seeded solve that does
    not converge (or raises) is re-solved once from DC in the same
    attempt, so seeding never turns a converging job into a failing
    one. A seed that already meets the residual tolerance is kept: the
    MPDE solver takes a Newton step from any surface, so the answer
    lands as far inside the tolerance as the cold solve's. A job whose
    anchor did not converge runs cold. Phase 2 is skipped when no group
    has a second job.

    A job that raises (a mis-built circuit, an
    off-lattice MPDE frequency, an injected crash) is captured as
    [Error] — with exception message, backtrace when
    [Printexc.backtrace_status], and the active escalation-ladder stage
    — and never poisons sibling jobs or the pool.

    Retry: under a {!Resilience.Retry.policy}, {e transient} failures
    (an escaped exception, or a budget-slice exhaustion) are retried up
    to [max_attempts] times with decorrelated-jitter backoff slept on
    the injectable {!Telemetry.Clock}. Deterministic non-convergence
    (stall, divergence) is not retried — re-running the identical
    computation reproduces it bitwise. When every regular attempt has
    failed and the policy allows it, a watchdog grants one final
    attempt at {!Options.degrade}d options (coarser grid, looser
    tolerance); the demotion is kept only if it rescues the job and is
    flagged in the outcome. The default policy is
    {!Resilience.Retry.none}: single attempt, exactly the historical
    behavior.

    Budgets: [wall_seconds] is a deadline for the whole sweep. Budget
    counters are mutable and deliberately *not* shared across domains
    (ticks would race), so instead each {e attempt} derives a fresh
    standalone {!Resilience.Budget.t} from the time left to the sweep
    deadline when it starts — chained (via [~parent]) onto any budget
    the job's own options already carried, which lives on the same
    domain. Late jobs and late retries therefore get small budgets and
    exhaust cleanly instead of overshooting the deadline; once the
    deadline has passed, no further retries or degraded attempts run.

    Fault injection: every attempt runs inside a
    {!Resilience.Faultinject.with_scope} keyed
    ["<label>#<attempt>"] (degraded attempt: ["<label>#d"]), so
    occurrence counters reset per attempt and plan filters can target a
    specific job, attempt, or the degraded pass.

    Telemetry: recorders are domain-local ({!Telemetry}), so worker
    domains record nothing unless [per_job_telemetry] is set, which
    enables a recorder around each job and attaches the per-solve
    summary to its result. Solver workspaces follow the same ownership
    rule — every job builds its own on its executing domain; nothing
    mutable is shared across domains but the job queue's atomic index
    and the disjoint result slots. *)

type job = { label : string; problem : Problem.t; engine : Backend.t }

val job : ?label:string -> ?options:Options.t -> kind:Backend.kind -> Problem.t -> job
(** Convenience constructor; the default label is
    ["<problem.label>:<engine name>"]. *)

type failure = {
  message : string;  (** [Printexc.to_string] of whatever escaped *)
  backtrace : string option;
      (** raw backtrace, when backtrace recording was on *)
  stage : string option;
      (** the escalation-ladder stage active when the exception
          escaped, when the ladder was running *)
}

val failure_to_string : failure -> string
(** Message plus the stage suffix, without the backtrace. *)

type outcome = {
  index : int;  (** position in the input array *)
  job : job;
  result : (Backend.Result.t, failure) Stdlib.result;
  wall_seconds : float;
      (** this job alone, on its executing domain, across all its
          attempts including backoff sleeps *)
  attempts : int;  (** regular attempts run (1 = no retry) *)
  degraded : bool;
      (** the result came from the watchdog's degraded attempt *)
  worker : int;
      (** {!Pool.worker_index} of the domain that ran the job (0 = the
          calling domain) *)
  anchor : int option;
      (** input index of the anchor whose converged surface seeded the
          returned result; [None] for anchors, ungrouped jobs, jobs
          whose anchor did not converge, a seeded job re-solved cold
          (the seeded solve failed), and a degraded result *)
  trace : (float * Telemetry.snapshot) option;
      (** with [per_job_trace]: [(base, snapshot)] where [base] is the
          absolute {!Telemetry.Clock.wall} instant the snapshot's span
          timestamps are relative to — ready for
          {!Telemetry.Merge.write_chrome} *)
}

val retries : outcome -> int
(** [attempts - 1]. *)

val health_class : Diagnostics.Convergence.cls -> string
(** Plain class name for the introspection plane ("quadratic",
    "linear", …) — {!Diagnostics.Convergence.to_string} embeds rate or
    rescue-stage detail that event consumers would have to re-parse. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — 1 on a single-core host,
    which makes {!run} fall back to fully serial execution. *)

val run :
  ?domains:int ->
  ?wall_seconds:float ->
  ?max_newton_per_job:int ->
  ?per_job_telemetry:bool ->
  ?per_job_trace:bool ->
  ?retry:Resilience.Retry.policy ->
  ?completed:(int -> bool) ->
  ?on_outcome:(outcome -> unit) ->
  job array ->
  outcome array
(** Execute the jobs on [domains] {!Pool} lanes (default
    {!default_domains}; clamped to the job count), which run on at
    most [Domain.recommended_domain_count ()] OS domains; [1] means no
    domain is spawned at all. The result array is index-aligned with
    the input. Never raises on job failure.

    [completed i] marks job [i] as already solved by an interrupted
    run of the same job list (a checkpoint resume; default: none). A
    completed job is not run, reported or returned: the result holds
    the pending jobs' outcomes in input order, each [index] still its
    input position. Anchors are picked over the whole list, completed
    jobs included, and a completed anchor with a pending dependent is
    re-solved silently — no [on_outcome], no event — to seed it. The
    solve is deterministic, so the resumed jobs' waveforms are bitwise
    those of the uninterrupted run.

    [per_job_trace] captures a full telemetry snapshot per job — all
    attempts, on the executing domain — into [outcome.trace] for
    cross-domain merging ({!Telemetry.Merge}). It also switches
    {!Pool.map} to [`Static] assignment so the job → worker placement
    (and hence the merged trace) is run-to-run deterministic: job [i]
    runs on lane [i mod domains] in either phase, whatever the
    host's core count. An
    already-live recorder on the executing domain is windowed, not
    replaced, so serial sweeps under [rfss --trace] compose.

    [on_outcome] fires once per job as it completes, {e on the
    executing domain} and concurrently across domains — consumers that
    aggregate (the checkpoint writer) must serialize internally — and
    before the job's [job_finished] event is published. *)

val run_job :
  ?deadline:float ->
  ?max_newton_per_job:int ->
  ?per_job_telemetry:bool ->
  ?per_job_trace:bool ->
  ?retry:Resilience.Retry.policy ->
  ?on_outcome:(outcome -> unit) ->
  ?publish:bool ->
  ?seed:int * Linalg.Vec.t ->
  int ->
  job ->
  outcome
(** [run_job index job] solves one job on the calling domain: the only
    path by which a job is solved. {!run} calls it for every job in
    both phases with its own settings ([deadline] is the absolute
    {!Telemetry.Clock.wall} instant its [wall_seconds] ends at; the
    rest are its arguments of the same names, same defaults). The solve
    service calls it per cache miss with the defaults but for
    [on_outcome], which writes its response lines; the request's
    budget travels in the job's options.

    It runs the attempts, retry, degraded pass, per-job trace, events
    (on lane {!Pool.worker_index}) and [on_outcome] described above;
    [publish = false] (default [true]) silences the last two, for a
    resumed sweep's re-solve of a checkpointed anchor. [seed =
    (anchor, surface)] seeds the solve, with the cold fallback
    described above, and [outcome.anchor] is [Some anchor] only when
    the seed was kept — the service, which has no anchor index, reads
    just whether it is set. *)
