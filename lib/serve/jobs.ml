(* The async job executor behind the service: accept → cache probe →
   queue → solve on a worker domain → stream result lines.

   A job is solved by Engine.Sweep.run_job, the per-job path every
   sweep job takes: seeding with its cold fallback, the verdict and
   the job events are the sweep's. This module keeps only what is the
   service's own: the result cache, the warm-start store (looked up
   before the solve, offered the converged surface after it), the
   queue and the response lines.

   Threading contract: [submit], [poll] and [status_json] run on the
   Observe server domain (they must never block beyond a mutex held
   for O(queue) work); the solves run on worker domains from
   Engine.Pool.spawn_workers, each worker its own lane. Results cross
   domains through each job's handle (a mutex-guarded line queue) and
   the shared cache/warm-start stores; the server loop polls handles
   every tick, so no wake plumbing is needed beyond its existing 50 ms
   cadence. *)

type handle = {
  hm : Mutex.t;
  lines : string Queue.t;
  mutable finished : bool;
}

type pending = {
  id : int;
  job : Protocol.job;
  key : string;
  handle : handle;
}

type t = {
  cache : Cache.t;
  warm : Engine.Warm.t;
  mutex : Mutex.t;
  cond : Condition.t;
  queue : pending Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  workers : int;
  next_id : int Atomic.t;
  submitted : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  warm_solves : int Atomic.t;
}

(* ---------- handles ---------- *)

let handle_make () =
  { hm = Mutex.create (); lines = Queue.create (); finished = false }

let push h line =
  Mutex.protect h.hm (fun () -> Queue.push line h.lines)

let finish h = Mutex.protect h.hm (fun () -> h.finished <- true)

let poll h () =
  Mutex.protect h.hm (fun () ->
      match Queue.take_opt h.lines with
      | Some line -> `Data (line ^ "\n")
      | None -> if h.finished then `Eof else `Wait)

(* ---------- metrics ---------- *)

let queue_depth t = Mutex.protect t.mutex (fun () -> Queue.length t.queue)

let registry t =
  let r = Diagnostics.Registry.create () in
  let cs = Cache.stats t.cache in
  let c name v help =
    Diagnostics.Registry.counter ~help r name (float_of_int v)
  in
  let g name v help =
    Diagnostics.Registry.gauge ~help r name (float_of_int v)
  in
  c "serve.jobs_submitted" (Atomic.get t.submitted) "Jobs accepted by rfssd";
  c "serve.jobs_completed" (Atomic.get t.completed)
    "Jobs answered (cache hits included)";
  c "serve.jobs_failed" (Atomic.get t.failed)
    "Jobs whose solve raised instead of returning a result";
  c "serve.cache_hits" cs.Cache.hits "Result-cache hits";
  c "serve.cache_misses" cs.Cache.misses "Result-cache misses";
  c "serve.cache_evictions" cs.Cache.evictions "Result-cache LRU evictions";
  g "serve.cache_entries" cs.Cache.entries "Result-cache current size";
  c "serve.warm_starts" (Atomic.get t.warm_solves)
    "Solves answered from a cached nearby surface (a seed re-solved cold is not counted)";
  g "serve.warm_entries" (Engine.Warm.size t.warm)
    "Warm-start surfaces retained";
  g "serve.queue_depth" (queue_depth t) "Jobs accepted but not yet solving";
  g "serve.workers" t.workers "Solver worker domains";
  r

let publish_metrics t = Observe.Publish.set_metrics (registry t)

(* ---------- execution ---------- *)

(* Solve one pending job through the sweep's per-job path and stream
   its lines. *)
let execute t (p : pending) =
  let job = p.job in
  let o = job.Protocol.options in
  let budget =
    Resilience.Budget.of_limits ?wall_seconds:job.Protocol.wall_seconds
      ?max_newton:job.Protocol.max_newton_budget ()
  in
  let digest = Catalog.digest job.Protocol.fixture in
  (* No anchor index here: the job id stands in, read only as a flag. *)
  let seed =
    if job.Protocol.warm && job.Protocol.engine = Engine.Mpde then
      Option.map
        (fun surface -> (p.id, surface))
        (Engine.Warm.nearest t.warm ~digest ~n1:o.Engine.Options.n1
           ~n2:o.Engine.Options.n2 ~f_fast:job.Protocol.f_fast
           ~fd:job.Protocol.fd)
    else None
  in
  let problem =
    Catalog.problem_of job.Protocol.fixture ~f_fast:job.Protocol.f_fast
      ~fd:job.Protocol.fd
  in
  (* Lines and counters are done before the per-job path publishes
     job_finished, the event that wakes the server to stream them. *)
  let respond (outcome : Engine.Sweep.outcome) =
    (match outcome.Engine.Sweep.result with
    | Ok r ->
        let warm_started = outcome.Engine.Sweep.anchor <> None in
        if warm_started then Atomic.incr t.warm_solves;
        let line = Protocol.result_line ~key:p.key ~warm_started job r in
        Cache.add t.cache p.key line;
        (if r.Engine.Result.converged && job.Protocol.warm then
           match r.Engine.Result.mpde_solution with
           | Some sol ->
               Engine.Warm.offer t.warm ~digest ~n1:o.Engine.Options.n1
                 ~n2:o.Engine.Options.n2 ~f_fast:job.Protocol.f_fast
                 ~fd:job.Protocol.fd sol.Mpde.Solver.big_x
           | None -> ());
        push p.handle line;
        Atomic.incr t.completed
    | Error f ->
        push p.handle (Protocol.error_line f.Engine.Sweep.message);
        Atomic.incr t.failed);
    push p.handle (Protocol.done_line ~id:p.id);
    finish p.handle;
    publish_metrics t
  in
  ignore
    (Engine.Sweep.run_job ?seed ~on_outcome:respond p.id
       (Engine.Sweep.job ~label:p.key
          ~options:{ o with Engine.Options.budget }
          ~kind:job.Protocol.engine problem))

let rec worker_loop t =
  let next =
    Mutex.protect t.mutex (fun () ->
        while (not t.stopping) && Queue.is_empty t.queue do
          Condition.wait t.cond t.mutex
        done;
        if t.stopping then None else Queue.take_opt t.queue)
  in
  match next with
  | None -> ()
  | Some p ->
      execute t p;
      worker_loop t

(* ---------- lifecycle ---------- *)

let create ?(workers = 2) ?(cache_capacity = 64) ?(warm_capacity = 16) () =
  if workers < 1 then invalid_arg "Jobs.create: workers must be >= 1";
  let t =
    {
      cache = Cache.create ~capacity:cache_capacity;
      warm = Engine.Warm.create ~capacity:warm_capacity;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
      workers;
      next_id = Atomic.make 1;
      submitted = Atomic.make 0;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      warm_solves = Atomic.make 0;
    }
  in
  t.domains <- Engine.Pool.spawn_workers workers (fun () -> worker_loop t);
  t

let submit t job =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let key = Protocol.key_of_job job in
  Atomic.incr t.submitted;
  let h = handle_make () in
  (match Cache.find t.cache key with
  | Some payload ->
      push h (Protocol.accepted_line ~id ~key ~cache_hit:true);
      push h payload;
      push h (Protocol.done_line ~id);
      finish h;
      Atomic.incr t.completed
  | None ->
      push h (Protocol.accepted_line ~id ~key ~cache_hit:false);
      Mutex.protect t.mutex (fun () ->
          Queue.push { id; job; key; handle = h } t.queue;
          Condition.signal t.cond));
  publish_metrics t;
  h

let stop t =
  Mutex.protect t.mutex (fun () ->
      t.stopping <- true;
      Condition.broadcast t.cond);
  List.iter Domain.join t.domains;
  t.domains <- [];
  (* Anything still queued will never be solved; error-finish its
     stream so a connected client sees a terminated protocol rather
     than a hang. *)
  let abandoned =
    Mutex.protect t.mutex (fun () ->
        let l = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        l)
  in
  List.iter
    (fun p ->
      push p.handle (Protocol.error_line "service stopping");
      push p.handle (Protocol.done_line ~id:p.id);
      finish p.handle;
      Atomic.incr t.failed)
    abandoned;
  publish_metrics t

let cache t = t.cache

let warm t = t.warm

let warm_starts t = Atomic.get t.warm_solves

let status_json t =
  let cs = Cache.stats t.cache in
  Printf.sprintf
    "{\"v\":%s,\"workers\":%d,\"queue_depth\":%d,\"submitted\":%d,\"completed\":%d,\"failed\":%d,\"cache\":{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"entries\":%d},\"warm\":{\"starts\":%d,\"entries\":%d}}"
    (Telemetry.Json.quote Protocol.version)
    t.workers (queue_depth t) (Atomic.get t.submitted) (Atomic.get t.completed)
    (Atomic.get t.failed) cs.Cache.hits cs.Cache.misses cs.Cache.evictions
    cs.Cache.entries (Atomic.get t.warm_solves) (Engine.Warm.size t.warm)
