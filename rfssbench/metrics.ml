(* The metric catalog: every metric the harness reports, with its unit,
   direction and (end-to-end only) regression bound. BENCHMARK.json
   declares the same list; the self-test checks the two agree. *)

type better = Lower | Higher

type t = { name : string; unit_ : string; better : better; bound : float option }

let m ?bound name unit_ better = { name; unit_; better; bound }

(* Every workload reports each of these, in reference seconds (calib.ml:
   each timing over the calibration probe run right after it, times
   the probe's reference time). latency_ref_s is the time to one
   result, a 10 %-trimmed mean over the run: a solve (paper-mixer,
   bridge-rectifier), an all-core pass over the job list
   (disparity-sweep), a cache hit on an idle service (served-mix).
   setup_s is the median of the run's repeated set-ups. README.md says
   why the bounds are what they are. *)
let end_to_end =
  [
    m "latency_ref_s" "s" Lower ~bound:0.25;
    m "setup_s" "s" Lower ~bound:0.25;
  ]

(* Per-layer metrics, named after the repo's modules. Solver-layer
   values are per Engine.run call; a layer a workload does not traverse
   reads 0. *)
let per_layer =
  [
    m "engine.run_s" "s" Lower;
    m "engine.run_overhead_s" "s" Lower;
    m "mpde.solve_s" "s" Lower;
    m "mpde.linear_s" "s" Lower;
    m "mpde.continuation_steps" "count" Lower;
    m "mpde.assemble.jacobians_s" "s" Lower;
    m "mpde.assemble.residual_s" "s" Lower;
    m "mpde.precond.build_s" "s" Lower;
    m "mpde.precond.refresh_s" "s" Lower;
    m "mpde.precond.sweeps" "count" Lower;
    m "mpde.precond.lag_rebuilds" "count" Lower;
    m "mpde.precond.cluster_reps" "count" Lower;
    m "sparse.krylov.gmres_s" "s" Lower;
    m "sparse.krylov.iterations" "count" Lower;
    m "sparse.krylov.restarts" "count" Lower;
    m "sparse.krylov.stalls" "count" Lower;
    m "sparse.krylov.recycle_accept_frac" "frac" Higher;
    m "linalg.lu.factors" "count" Lower;
    m "linalg.lu.solve_calls" "count" Lower;
    m "linalg.lu.cols_per_call" "count" Higher;
    m "linalg.lu.panel_cols_per_s" "1/s" Higher;
    m "sparse.csr.spmv_mflops" "MFLOP/s" Higher;
    m "numeric.newton.iterations" "count" Lower;
    m "numeric.newton.backtracks" "count" Lower;
    m "numeric.newton.residual_s" "s" Lower;
    m "circuit.dcop.solve_s" "s" Lower;
    m "steady.shooting.integrate_s" "s" Lower;
    m "sparse.splu.factors" "count" Lower;
    m "telemetry.alloc.minor_words_per_op" "words" Lower;
    m "telemetry.gc.minor_collections" "count" Lower;
    m "telemetry.gc.major_pause_max_s" "s" Lower;
    m "engine.sweep.jobs_per_s_serial" "1/s" Higher;
    m "engine.sweep.scaling_eff" "frac" Higher;
    m "engine.sweep.utilization" "frac" Higher;
    m "engine.sweep.idle_s" "s" Lower;
    m "engine.sweep.job_s_max" "s" Lower;
    m "engine.sweep.fixed_overhead_s" "s" Lower;
    m "engine.sweep.retries" "count" Lower;
    m "serve.hit_frac" "frac" Higher;
    m "serve.warm_frac" "frac" Higher;
    m "serve.evictions" "count" Lower;
    m "serve.closed_loop_rps" "1/s" Higher;
    m "serve.req_hit_s_p50" "s" Lower;
    m "serve.req_miss_s_p50" "s" Lower;
    m "serve.req_p99_s" "s" Lower;
    m "serve.miss_solve_s_p50" "s" Lower;
    m "serve.miss_wait_s_p50" "s" Lower;
    m "serve.result_bytes_p50" "bytes" Lower;
    m "observe.http.healthz_rtt_s_p50" "s" Lower;
    m "observe.http.stalled_responses" "count" Lower;
    m "bench.host_steal_frac" "frac" Lower;
    m "bench.cpu_s_per_op" "s" Lower;
    m "bench.rss_mb_p50" "MB" Lower;
    m "bench.rss_mb_peak" "MB" Lower;
    m "bench.gen_late_p99_s" "s" Lower;
    m "bench.trace_overhead_frac" "frac" Lower;
    m "bench.op_s_p50" "s" Lower;
    m "bench.op_s_p90" "s" Lower;
    m "bench.probe_s_p50" "s" Lower;
    m "bench.ops_traced" "count" Higher;
  ]

let find name = List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit s =
  s <> ""
  && String.length s <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let better_string = function Lower -> "lower" | Higher -> "higher"

(* [worse_by d ~base v] is how much worse [v] is than [base], as a share
   of [base] (negative when better). *)
let worse_by d ~base v =
  let r = (v -. base) /. Float.abs base in
  match d.better with Lower -> r | Higher -> -.r
