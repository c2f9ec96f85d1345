(** Hand-rolled work-queue executor over OCaml 5 domains — no
    dependencies beyond the stdlib.

    Chunks of jobs are pulled from a shared {!Atomic} index (dynamic
    scheduling: a slow chunk never blocks the queue behind it) and each
    result is written to its own slot of a pre-sized array, so the
    output order is always the input order regardless of which domain
    finished when. [Domain.join] on every worker establishes the
    happens-before edge that makes those slot writes visible to the
    caller.

    Spawned workers enlarge their minor heap before starting (the
    per-domain default is small enough that allocation-heavy solves
    minor-collect constantly, inverting the parallel speedup); the
    calling domain's GC settings are left untouched.

    With [domains = 1] — the serial fallback the sweep uses when
    [Domain.recommended_domain_count () = 1] — no domain is spawned at
    all and the pool degenerates to [Array.map]. *)

val map :
  ?assign:[ `Dynamic | `Static ] ->
  domains:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~domains f items] applies [f] to every item on at most
    [domains] concurrent domains (the calling domain participates as a
    worker, so [domains - 1] are spawned; the count is clamped to
    [1 .. Array.length items]).

    Each atomic fetch claims [max 1 (n / (domains * 4))] consecutive
    items, which balances claim traffic against load-balancing slack.

    [assign] picks the scheduling policy. [`Dynamic] (the default) is
    the chunked shared-queue claiming described above. [`Static] gives
    worker [k] exactly the items with index ≡ k (mod domains): no load
    balancing, but the job → worker placement is a pure function of
    the index — the property cross-domain trace merging needs to be
    run-to-run deterministic.

    [f] must not raise: an escaping exception tears down the whole
    pool ([Domain.join] re-raises it). Wrap fallible work in a
    [result] before mapping — {!Sweep} does exactly that. *)

val tune_worker_gc : unit -> unit
(** Enlarge the current domain's minor heap to the pool's worker
    setting (4M words) if it is smaller. [map] applies this to every
    domain it spawns; long-lived worker domains created elsewhere (the
    solve service's job executors) call it once at startup so a solve
    behaves the same wherever it runs. *)

val worker_index : unit -> int
(** Index of the pool worker running on the current domain: [0] for
    the calling domain, [1 .. domains - 1] for spawned workers.
    Meaningful only inside [f] during a {!map}; outside one it reads
    the last value set on this domain (the caller's is [0]). *)
