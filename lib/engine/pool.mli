(** Hand-rolled work-queue executor over OCaml 5 domains — no
    dependencies beyond the stdlib, and the only code in the engine
    and the service that spawns a domain.

    [map ~domains:k] runs [k] logical {e lanes} on at most [cores =
    Domain.recommended_domain_count ()] OS domains: domain [d] runs
    lanes [d], [d + cores], … in turn, so more lanes than cores never
    oversubscribe the host (every minor GC stops all domains and would
    wait for a descheduled one). Callers only see lanes:
    {!worker_index} and static placement are by lane. A lane after its
    domain's first starts with an empty solver workspace slot, as on a
    fresh domain, so reuse counters and traces do not depend on the
    host. Spawned domains enlarge their minor heap first (the default
    makes allocation-heavy solves minor-collect constantly); the
    calling domain's GC settings are left untouched.

    No domain outlives its call: there is no persistent pool. An idle
    helper domain kept between calls slows serial work in the same
    process, because it has to join every stop-the-world minor GC. On
    a 2-vCPU host, the legacy bench's 8-job sweep (1 anchor, 7 seeded
    jobs, about 45 minor GCs) through [Sweep.run] on one domain took
    0.024 / 0.030 / 0.041 s without such a helper and 0.030 / 0.042 /
    0.079 s with it (median of 40 runs, three runs each way). *)

val map :
  ?assign:[ `Dynamic | `Static ] ->
  domains:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~domains f items] applies [f] to every item on [domains]
    lanes (clamped to [1 .. Array.length items]); the calling domain
    is one of the OS domains, so [domains = 1] spawns none. Results
    are in input order whichever domain finished when.

    [assign] picks the scheduling policy. [`Dynamic] (the default)
    claims chunks of [max 1 (n / (lanes * 4))] items from a shared
    atomic index, so a slow chunk never blocks the queue behind it.
    [`Static] gives lane [k] exactly the items with index ≡ k
    (mod lanes): no load balancing, but the placement is a pure
    function of the index — what deterministic trace merging needs.

    [f] must not raise: an escaping exception tears down the whole
    pool ([Domain.join] re-raises it). Wrap fallible work in a
    [result] before mapping — {!Sweep} does exactly that. *)

val spawn_workers : int -> (unit -> unit) -> unit Domain.t list
(** [spawn_workers n f] starts [n] domains, worker [w] running [f] as
    lane [w] (GC-tuned, {!worker_index} [= w], worker lifecycle events
    published); the caller joins them. The solve service's executors:
    each blocks in [f] until the service stops, so [n] is not clamped
    to the cores. *)

val worker_index : unit -> int
(** Lane running on the current domain: [0 .. domains - 1] inside
    {!map}'s [f], [w] inside a {!spawn_workers} worker, otherwise the
    last value set on this domain (the caller's is [0]). *)
