module J = Telemetry.Json
module Registry = Diagnostics.Registry

type worker = {
  w_busy : bool;
  w_job : string option;
  w_jobs_done : int;
  w_busy_seconds : float;
  w_retries : int;
}

type counts = {
  total : int;
  started : int;
  finished : int;
  failed : int;
  degraded_jobs : int;
  retries : int;
  checkpoints : int;
}

type stats = {
  phase : string;
  counts : counts;
  domains : int;
  deadline : float option;
  t0 : float;
  updated : float;
  worst : string;
  worst_rank : int;
  workers : worker array;
  job_wall : Telemetry.histogram;
}

type event = {
  seq : int;
  time : float;
  kind : string;
  job : string;
  worker : int;
  fields : (string * J.t) list;
}

type slice = { next_seq : int; oldest_seq : int; events : event list }

let empty_worker =
  { w_busy = false; w_job = None; w_jobs_done = 0; w_busy_seconds = 0.0;
    w_retries = 0 }

let empty_counts =
  { total = 0; started = 0; finished = 0; failed = 0; degraded_jobs = 0;
    retries = 0; checkpoints = 0 }

let empty_hist : Telemetry.histogram =
  { count = 0; sum = 0.0; min = 0.0; max = 0.0;
    buckets = Array.make Telemetry.bucket_count 0 }

let initial_stats () =
  { phase = "idle"; counts = empty_counts; domains = 1; deadline = None;
    t0 = 0.0; updated = 0.0; worst = "none"; worst_rank = -1;
    workers = [||]; job_wall = empty_hist }

(* ------------------------------------------------------------------ *)
(* Arming and the aggregate-stats cell.                               *)

let armed_flag = Atomic.make false

let armed () = Atomic.get armed_flag

let state = Atomic.make (initial_stats ())

let rec update f =
  let old = Atomic.get state in
  if not (Atomic.compare_and_set state old (f old)) then update f

let read_stats () = Atomic.get state

(* Copy-on-write access to the worker array: every transition builds a
   fresh array so the published record stays immutable. *)
let with_worker workers i f =
  let i = if i < 0 then 0 else i in
  let n = Stdlib.max (Array.length workers) (i + 1) in
  let next = Array.make n empty_worker in
  Array.blit workers 0 next 0 (Array.length workers);
  next.(i) <- f next.(i);
  next

let hist_observe (h : Telemetry.histogram) v : Telemetry.histogram =
  let buckets = Array.copy h.buckets in
  let i = Telemetry.bucket_index v in
  buckets.(i) <- buckets.(i) + 1;
  {
    count = h.count + 1;
    sum = h.sum +. v;
    min = (if h.count = 0 then v else Float.min h.min v);
    max = (if h.count = 0 then v else Float.max h.max v);
    buckets;
  }

(* ------------------------------------------------------------------ *)
(* Event ring.                                                        *)

let ring_mutex = Mutex.create ()

let ring = ref (Array.make 4096 None)

let ring_next = ref 1 (* seq of the next event *)

let ring_oldest = ref 1 (* oldest seq still retained *)

let waker : (unit -> unit) option Atomic.t = Atomic.make None

let set_wake w = Atomic.set waker w

let set_ring_capacity n =
  let n = Stdlib.max 16 n in
  Mutex.protect ring_mutex (fun () ->
      ring := Array.make n None;
      ring_oldest := !ring_next)

let push_event kind ~job ~worker fields =
  let s = Atomic.get state in
  let time = Telemetry.Clock.wall () -. s.t0 in
  Mutex.protect ring_mutex (fun () ->
      let cap = Array.length !ring in
      let seq = !ring_next in
      !ring.((seq - 1) mod cap) <- Some { seq; time; kind; job; worker; fields };
      ring_next := seq + 1;
      if seq - !ring_oldest + 1 > cap then ring_oldest := seq - cap + 1);
  match Atomic.get waker with Some w -> w () | None -> ()

let events_since since =
  Mutex.protect ring_mutex (fun () ->
      let cap = Array.length !ring in
      let from = Stdlib.max (since + 1) !ring_oldest in
      let acc = ref [] in
      for seq = !ring_next - 1 downto from do
        match !ring.((seq - 1) mod cap) with
        | Some e when e.seq = seq -> acc := e :: !acc
        | _ -> ()
      done;
      { next_seq = !ring_next; oldest_seq = !ring_oldest; events = !acc })

(* ------------------------------------------------------------------ *)
(* Extra metric samples (merged telemetry etc).                       *)

let extra_metrics :
    (Registry.sample list
    * (string * (string * string) list * Telemetry.histogram) list)
    Atomic.t =
  Atomic.make ([], [])

let set_metrics reg =
  Atomic.set extra_metrics (Registry.samples reg, Registry.histograms reg)

let reset () =
  Atomic.set state (initial_stats ());
  Atomic.set extra_metrics ([], []);
  Mutex.protect ring_mutex (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      ring_next := 1;
      ring_oldest := 1)

let arm () = Atomic.set armed_flag true

let disarm () = Atomic.set armed_flag false

(* ------------------------------------------------------------------ *)
(* Engine-side hooks. Each starts with the one-atomic-load guard.     *)

let rank_of_health h =
  match h with
  | "quadratic" -> 0
  | "linear" -> 1
  | "rescued" -> 3
  | "stagnating" -> 4
  | "diverging" -> 5
  | "failed" -> 6
  | _ -> 2

let run_started ?deadline ?(domains = 1) ~phase:_ ~total () =
  if armed () then begin
    let now = Telemetry.Clock.wall () in
    update (fun _ ->
        { phase = "running";
          counts = { empty_counts with total };
          domains;
          deadline;
          t0 = now;
          updated = now;
          worst = "none";
          worst_rank = -1;
          workers = [||];
          job_wall = empty_hist });
    push_event "run_started" ~job:"" ~worker:(-1)
      [ ("total", J.Num (float_of_int total));
        ("domains", J.Num (float_of_int domains)) ]
  end

let run_finished () =
  if armed () then begin
    update (fun s ->
        { s with phase = "done"; updated = Telemetry.Clock.wall () });
    push_event "run_finished" ~job:"" ~worker:(-1) []
  end

let job_started ~job ~worker =
  if armed () then begin
    update (fun s ->
        { s with
          counts = { s.counts with started = s.counts.started + 1 };
          updated = Telemetry.Clock.wall ();
          workers =
            with_worker s.workers worker (fun w ->
                { w with w_busy = true; w_job = Some job }) });
    push_event "job_started" ~job ~worker []
  end

let job_finished ~job ~worker ~status ~health ~wall_seconds ~attempts =
  if armed () then begin
    let hname = Option.value health ~default:"unknown" in
    let hrank = rank_of_health hname in
    update (fun s ->
        let failed_inc =
          if status = "error" || status = "failed" then 1 else 0
        in
        { s with
          counts =
            { s.counts with
              finished = s.counts.finished + 1;
              failed = s.counts.failed + failed_inc };
          updated = Telemetry.Clock.wall ();
          worst = (if hrank > s.worst_rank then hname else s.worst);
          worst_rank = Stdlib.max hrank s.worst_rank;
          workers =
            with_worker s.workers worker (fun w ->
                { w with
                  w_busy = false;
                  w_job = None;
                  w_jobs_done = w.w_jobs_done + 1;
                  w_busy_seconds = w.w_busy_seconds +. wall_seconds });
          job_wall = hist_observe s.job_wall wall_seconds });
    push_event "job_finished" ~job ~worker
      [ ("status", J.Str status);
        ("health", (match health with Some h -> J.Str h | None -> J.Null));
        ("wall_seconds", J.Num wall_seconds);
        ("attempts", J.Num (float_of_int attempts)) ]
  end

let retry ~job ~worker ~attempt ~delay =
  if armed () then begin
    update (fun s ->
        { s with
          counts = { s.counts with retries = s.counts.retries + 1 };
          updated = Telemetry.Clock.wall ();
          workers =
            with_worker s.workers worker (fun w ->
                { w with w_retries = w.w_retries + 1 }) });
    push_event "retry" ~job ~worker
      [ ("attempt", J.Num (float_of_int attempt));
        ("delay_seconds", J.Num delay) ]
  end

let degraded ~job ~worker =
  if armed () then begin
    update (fun s ->
        { s with
          counts = { s.counts with degraded_jobs = s.counts.degraded_jobs + 1 };
          updated = Telemetry.Clock.wall () });
    push_event "degraded" ~job ~worker []
  end

let checkpoint_written ~job =
  if armed () then begin
    update (fun s ->
        { s with
          counts = { s.counts with checkpoints = s.counts.checkpoints + 1 };
          updated = Telemetry.Clock.wall () });
    push_event "checkpoint_written" ~job ~worker:(-1) []
  end

let worker_started ~worker =
  if armed () then
    update (fun s ->
        { s with workers = with_worker s.workers worker (fun w -> w) })

let worker_stopped ~worker =
  if armed () then
    update (fun s ->
        { s with
          workers =
            with_worker s.workers worker (fun w ->
                { w with w_busy = false; w_job = None }) })

let flush () =
  if armed () then
    update (fun s -> { s with updated = Telemetry.Clock.wall () })

(* ------------------------------------------------------------------ *)
(* Rendering.                                                         *)

let event_to_json e =
  J.to_string
    (J.Obj
       ([ ("seq", J.Num (float_of_int e.seq));
          ("time", J.Num e.time);
          ("event", J.Str e.kind);
          ("job", J.Str e.job);
          ("worker", J.Num (float_of_int e.worker)) ]
       @ e.fields))

let events_header ~since =
  let s = events_since since in
  let gap = since + 1 < s.oldest_seq && since + 1 < s.next_seq in
  J.to_string
    (J.Obj
       [ ("schema", J.Str "rfss.sweep_events/1");
         ("since", J.Num (float_of_int since));
         ("oldest_seq", J.Num (float_of_int s.oldest_seq));
         ("next_seq", J.Num (float_of_int s.next_seq));
         ("gap", J.Bool gap) ])

let rate_and_eta s now =
  let elapsed = now -. s.t0 in
  if s.counts.finished > 0 && elapsed > 0.0 then begin
    let rate = float_of_int s.counts.finished /. elapsed in
    let remaining = s.counts.total - s.counts.finished in
    let eta =
      if remaining > 0 && rate > 0.0 then Some (float_of_int remaining /. rate)
      else None
    in
    (Some rate, eta)
  end
  else (None, None)

let registry_snapshot () =
  let s = read_stats () in
  let now = Telemetry.Clock.wall () in
  let r = Registry.create () in
  let c name v help = Registry.counter ~help r name (float_of_int v) in
  let g name v help = Registry.gauge ~help r name v in
  c "sweep.jobs_started" s.counts.started "Jobs handed to a worker";
  c "sweep.jobs_finished" s.counts.finished
    "Jobs completed, whatever the status";
  c "sweep.jobs_failed" s.counts.failed "Jobs that ended in error";
  c "sweep.retries" s.counts.retries "Retry attempts across all jobs";
  c "sweep.degraded_jobs" s.counts.degraded_jobs
    "Jobs rerun with degraded settings after a watchdog trip";
  c "sweep.checkpoints" s.counts.checkpoints "Checkpoint records written";
  g "sweep.jobs_total" (float_of_int s.counts.total) "Jobs in the sweep";
  g "sweep.jobs_in_flight"
    (float_of_int (s.counts.started - s.counts.finished))
    "Jobs started but not yet finished";
  Registry.gauge ~help:"Run phase (one series set to 1)"
    ~labels:[ ("phase", s.phase) ]
    r "sweep.phase" 1.0;
  g "sweep.domains" (float_of_int s.domains) "Worker domains";
  g "sweep.elapsed_seconds"
    (if s.phase = "idle" then 0.0 else now -. s.t0)
    "Wall seconds since run start";
  (match s.deadline with
  | Some d ->
      g "sweep.budget_remaining_seconds" (d -. now)
        "Wall seconds until the sweep budget expires"
  | None -> ());
  g "sweep.worst_health_rank"
    (float_of_int s.worst_rank)
    "Worst convergence class seen (0=quadratic .. 6=failed)";
  Array.iteri
    (fun i w ->
      let labels = [ ("worker", string_of_int i) ] in
      Registry.gauge ~help:"1 while the worker has a job in flight" ~labels r
        "sweep.worker_busy"
        (if w.w_busy then 1.0 else 0.0);
      Registry.gauge ~help:"Summed wall seconds of the worker's finished jobs"
        ~labels r "sweep.worker_busy_seconds" w.w_busy_seconds;
      Registry.counter ~help:"Jobs finished by the worker" ~labels r
        "sweep.worker_jobs"
        (float_of_int w.w_jobs_done);
      Registry.counter ~help:"Retry attempts on the worker" ~labels r
        "sweep.worker_retries"
        (float_of_int w.w_retries))
    s.workers;
  Registry.histogram ~help:"Wall seconds per finished job" r
    "sweep.job_wall_seconds" s.job_wall;
  let samples, hists = Atomic.get extra_metrics in
  List.iter
    (fun (smp : Registry.sample) ->
      match smp.kind with
      | Registry.Counter ->
          Registry.counter ?help:smp.help ~labels:smp.labels r smp.name
            smp.value
      | Registry.Gauge ->
          Registry.gauge ?help:smp.help ~labels:smp.labels r smp.name smp.value)
    samples;
  List.iter (fun (name, labels, h) -> Registry.histogram ~labels r name h) hists;
  r

let healthz_json () =
  let s = read_stats () in
  let now = Telemetry.Clock.wall () in
  let rate, eta = rate_and_eta s now in
  let opt_num = function Some v -> J.Num v | None -> J.Null in
  let workers =
    Array.to_list s.workers
    |> List.mapi (fun i w ->
           J.Obj
             [ ("worker", J.Num (float_of_int i));
               ("busy", J.Bool w.w_busy);
               ("job", (match w.w_job with Some j -> J.Str j | None -> J.Null));
               ("jobs_done", J.Num (float_of_int w.w_jobs_done));
               ("busy_seconds", J.Num w.w_busy_seconds);
               ("retries", J.Num (float_of_int w.w_retries)) ])
  in
  let slice = events_since max_int in
  J.to_string
    (J.Obj
       [ ("schema", J.Str "rfss.healthz/1");
         ("phase", J.Str s.phase);
         ( "elapsed_seconds",
           J.Num (if s.phase = "idle" then 0.0 else now -. s.t0) );
         ("updated_seconds_ago", J.Num (now -. s.updated));
         ( "jobs",
           J.Obj
             [ ("total", J.Num (float_of_int s.counts.total));
               ("started", J.Num (float_of_int s.counts.started));
               ("finished", J.Num (float_of_int s.counts.finished));
               ("failed", J.Num (float_of_int s.counts.failed));
               ("degraded", J.Num (float_of_int s.counts.degraded_jobs));
               ("retries", J.Num (float_of_int s.counts.retries));
               ("checkpoints", J.Num (float_of_int s.counts.checkpoints));
               ( "in_flight",
                 J.Num (float_of_int (s.counts.started - s.counts.finished)) )
             ] );
         ("domains", J.Num (float_of_int s.domains));
         ( "budget_remaining_seconds",
           opt_num (Option.map (fun d -> d -. now) s.deadline) );
         ("worst_health", J.Str s.worst);
         ("jobs_per_second", opt_num rate);
         ("eta_seconds", opt_num eta);
         ("workers", J.Arr workers);
         ("next_event_seq", J.Num (float_of_int slice.next_seq)) ])
