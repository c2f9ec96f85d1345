(** The service's async job executor: accept → cache probe → queue →
    solve on worker domains → stream response lines.

    [submit] and [poll] are called from the Observe serving domain and
    never block beyond brief mutex holds; solves run on worker domains
    from {!Engine.Pool.spawn_workers}, each through
    {!Engine.Sweep.run_job} — the per-job path of a sweep, so a served
    job is seeded, judged and published exactly like a sweep job. A
    submission whose canonical key is cached completes immediately,
    replaying the stored result line; a miss is queued and its handle
    yields lines as the solve progresses. *)

type t

type handle
(** One submission's response stream. *)

val create : ?workers:int -> ?cache_capacity:int -> ?warm_capacity:int -> unit -> t
(** Spawn the worker domains ([workers], default 2) and the bounded
    stores (result cache capacity default 64 entries, warm-start store
    default 16 surfaces). @raise Invalid_argument on non-positive
    sizes. *)

val submit : t -> Protocol.job -> handle
(** Accept a validated job. Cache hit: the handle already holds
    accepted/result/done. Miss: holds the accepted line; result and
    done appear when a worker finishes. Each [submit] counts exactly
    one cache hit or miss. *)

val poll : handle -> unit -> [ `Data of string | `Wait | `Eof ]
(** Next response chunk (a full ["...\n"] line), [`Wait] when nothing
    is ready yet, [`Eof] after the done line has been taken — the
    shape {!Observe.Server.Stream} expects. Never blocks. *)

val stop : t -> unit
(** Stop accepting queue work, join the workers, and error-finish any
    jobs that were still queued so connected clients see a terminated
    protocol rather than a hang. *)

val cache : t -> Cache.t

val warm : t -> Engine.Warm.t

val warm_starts : t -> int
(** Solves whose answer came from a shared nearby surface: a seed the
    per-job path re-solved cold is not counted. *)

val publish_metrics : t -> unit
(** Push {!registry} into {!Observe.Publish.set_metrics} so /metrics
    scrapes include the serve counters. Called internally after every
    state change; callers only need it for an initial zero-valued
    exposition. *)

val status_json : t -> string
(** One-line JSON status document (the [GET /jobs] body). *)
