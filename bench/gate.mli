(** Perf-regression gate over the benchmark JSON.

    Compares a freshly produced [BENCH_mpde.json] against the committed
    [bench/baseline.json] and fails when a watched metric drifted past
    its tolerance in the bad direction. Relative change is
    [(current - baseline) / baseline]; a [Lower_better] metric fails
    when the change exceeds [+tolerance], a [Higher_better] one when it
    drops below [-tolerance]. Improvements never fail the gate.

    Beyond the numeric checks, the gate hard-fails when the current run
    reports [mixer.converged = false] — a benchmark that silently
    stopped converging is worse than a slow one — and when a watched
    metric is missing from either file (schema drift would otherwise
    turn the gate into a no-op). *)

type direction = Lower_better | Higher_better

type check = {
  metric : string;  (** display name, e.g. ["mixer.wall_seconds"] *)
  path : string list;  (** JSON path into the bench document *)
  direction : direction;
  tolerance : float;  (** allowed relative drift, e.g. [0.15] *)
  absolute : float;
      (** extra absolute slack: when [> 0], any change with
          [|current - baseline| <= absolute] passes regardless of the
          relative check — for metrics whose baseline sits near zero
          (GC pause percentiles, utilization fractions), where relative
          drift is numerically meaningless. [0.0] disables it. *)
}

type verdict = {
  check : check;
  baseline : float;
  current : float;
  change : float;  (** relative, signed *)
  ok : bool;
}

type result = {
  verdicts : verdict list;
  errors : string list;  (** missing metrics, non-convergence, … *)
  passed : bool;
}

val default_tolerance : float
(** [0.15]. *)

val default_checks : ?overrides:(string * float) list -> float -> check list
(** The watched metrics — [mixer.wall_seconds], [mixer.newton_iterations],
    [mixer.gmres_iterations], [mixer.block_factors] (the sweep
    preconditioner's block factorizations per solve, on a compiled
    schedule or dense: the bench's sum of the [mpde.precond.refactors]
    and [lu.dense_factors] counters) and [mixer.precond_sweeps]
    (sweep-preconditioner applications per solve, read from the
    embedded telemetry counters), [shooting.minor_words_per_step] (minor-heap
    words per time step of the d = 756.5 shooting job, deterministic
    like an iteration count), [mixer.minor_words_per_newton] (minor-heap
    words per MPDE Newton iterate of the untraced 40x30 mixer solve,
    equally deterministic), [sweep.wall_1] (lower is better),
    [speedup.ratio], [sweep.speedup_2] and [sweep.speedup_4] (higher is
    better), the kernel micro-benchmarks [kernel.spmv_mflops] and
    [kernel.block_solve_cols_per_s] (higher is better, 50% default
    tolerance — isolated hot loops are noisier than end-to-end walls),
    plus the observability trio [sweep.domain_utilization_2] /
    [sweep.domain_utilization_4] (higher is better, 0.2 absolute slack)
    and [gc.major_pause_p99] (lower is better, 50ms absolute slack) —
    at the given default tolerance, with optional per-metric overrides
    keyed by display name. The four deterministic mixer counts
    ([newton_iterations], [gmres_iterations], [block_factors],
    [precond_sweeps]) default to tolerance [0.]: any rise fails. The [sweep.*] group watches the parallel
    sweep executor: serial wall time for the 8-job MPDE sweep, the
    2- and 4-domain speedups over it, and how evenly the domains stay
    busy.

    Independent of these relative checks, {!evaluate} enforces an
    absolute floor: when the current run reports [sweep.cores >= 2],
    [sweep.speedup_2] and [sweep.speedup_4] must be [>= 1.0] — a
    multi-core runner whose parallel sweep loses to serial fails the
    gate no matter how bad the blessed baseline was (a 4-domain
    slowdown alongside a healthy 2-domain run means contention, not a
    missing core). Single-core runners skip the floor. *)

val lookup_num : Telemetry.Json.t -> string list -> float option
(** Fetch a numeric leaf from a bench document — exposed so callers
    (e.g. [compare.exe]) can inspect the same fields the gate reads,
    such as [sweep.cores] when reporting why the speedup floor was
    waived. *)

val evaluate :
  ?checks:check list ->
  baseline:Telemetry.Json.t ->
  current:Telemetry.Json.t ->
  unit ->
  result

val render : result -> string
(** Human-readable table plus PASS/FAIL line, one metric per row. *)
