(** Lock-free publication point between the sweep engine and the
    introspection server.

    The engine side ({!Engine.Sweep}, {!Engine.Pool}) calls the
    lifecycle hooks below from worker domains; the server side reads
    {!read_stats}/{!events_since} from its own domain and renders
    them. The contract that keeps the hot path honest:

    - When no listener is armed, every hook is a single [Atomic.get]
      on the armed flag and an immediate return — no allocation, no
      lock, no syscall.
    - When armed, aggregate stats live in one [Atomic.t] holding an
      immutable {!stats} record, updated by a CAS retry loop; readers
      always observe a complete, internally consistent snapshot.
    - Events go into a fixed-capacity ring under a mutex (only touched
      when armed). Monotonic sequence numbers let late or slow
      subscribers detect exactly what they missed. *)

type worker = {
  w_busy : bool;
  w_job : string option;  (** label of the job in flight *)
  w_jobs_done : int;
  w_busy_seconds : float;  (** summed wall time of finished jobs *)
  w_retries : int;
}

type counts = {
  total : int;
  started : int;
  finished : int;  (** all completions, whatever the status *)
  failed : int;
  degraded_jobs : int;
  retries : int;
  checkpoints : int;
}

type stats = {
  phase : string;  (** ["idle"], ["running"] or ["done"] *)
  counts : counts;
  domains : int;
  deadline : float option;  (** absolute {!Telemetry.Clock.wall} time *)
  t0 : float;  (** wall time of [run_started] *)
  updated : float;  (** wall time of the last update or {!flush} *)
  worst : string;  (** worst health class seen, ["none"] initially *)
  worst_rank : int;
  workers : worker array;
  job_wall : Telemetry.histogram;  (** wall seconds of finished jobs *)
}

type event = {
  seq : int;  (** monotonic from 1, no gaps at the source *)
  time : float;  (** wall-clock seconds relative to [run_started] *)
  kind : string;
  job : string;
  worker : int;
  fields : (string * Telemetry.Json.t) list;
}

type slice = {
  next_seq : int;  (** seq the next published event will get *)
  oldest_seq : int;  (** oldest seq still retained in the ring *)
  events : event list;  (** ascending seq order *)
}

(** {1 Arming} *)

val armed : unit -> bool

val arm : unit -> unit

val disarm : unit -> unit

val reset : unit -> unit
(** Clear stats and the event ring back to the initial state
    (sequence numbers restart at 1). For tests. *)

val set_wake : (unit -> unit) option -> unit
(** Callback invoked (outside any lock) after each event is pushed,
    so the server's select loop can wake and feed subscribers. *)

val set_ring_capacity : int -> unit
(** Resize the event ring (drops retained events; capacity is clamped
    to at least 16). Default 4096. *)

(** {1 Engine-side hooks} — all no-ops unless {!armed}. *)

val run_started :
  ?deadline:float -> ?domains:int -> phase:string -> total:int -> unit -> unit

val run_finished : unit -> unit

val job_started : job:string -> worker:int -> unit

val job_finished :
  job:string ->
  worker:int ->
  status:string ->
  health:string option ->
  wall_seconds:float ->
  attempts:int ->
  unit
(** [status] follows checkpoint-record semantics (["ok"], ["degraded"],
    ["failed"], ["error"]); [health] is the convergence class name. *)

val retry : job:string -> worker:int -> attempt:int -> delay:float -> unit

val degraded : job:string -> worker:int -> unit

val checkpoint_written : job:string -> unit

val worker_started : worker:int -> unit

val worker_stopped : worker:int -> unit

val set_metrics : Diagnostics.Registry.t -> unit
(** Stash extra samples (e.g. a merged telemetry snapshot) to be
    included verbatim in every subsequent [/metrics] scrape. The
    registry's samples are copied out at call time. *)

val flush : unit -> unit
(** Bump [stats.updated] to the current {!Telemetry.Clock.wall}. The
    server calls this periodically so scrapes can tell a quiet sweep
    from a dead one. *)

(** {1 Server-side reads and rendering} *)

val read_stats : unit -> stats

val events_since : int -> slice
(** Events with [seq > since], ascending. Compare [since + 1] against
    [slice.oldest_seq] to detect a gap. *)

val event_to_json : event -> string
(** One JSONL line (no trailing newline). *)

val events_header : since:int -> string
(** The stream's first line:
    [{"schema":"rfss.sweep_events/1","since":…,"oldest_seq":…,
      "next_seq":…,"gap":…}]. *)

val registry_snapshot : unit -> Diagnostics.Registry.t
(** Fresh registry rendering the current stats (sweep counters,
    per-worker gauges, the job-wall histogram) plus anything given to
    {!set_metrics}. Feed to {!Diagnostics.Registry.to_prometheus}. *)

val healthz_json : unit -> string
(** The [/healthz] body, schema ["rfss.healthz/1"]. *)
