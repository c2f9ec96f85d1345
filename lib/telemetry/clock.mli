(** Shared clock for every timing measurement in the solver stack.

    All engines read wall time through [wall] (a monotonic clock: OS
    [CLOCK_MONOTONIC] via bechamel's stub, immune to NTP slews) and CPU
    time through [cpu], so tests can [install] a fake source and make
    budgets, ladder stage timings, and telemetry spans fully
    deterministic. Blocking delays (retry backoff) go through [sleep]
    for the same reason: a manual source turns them into instantaneous
    clock advances. *)

type source = {
  wall : unit -> float;  (** seconds; only differences are meaningful *)
  cpu : unit -> float;  (** process CPU seconds *)
  sleep : float -> unit;
      (** block for the given seconds ([<= 0] is a no-op) *)
}

val install : source -> unit
(** Replace the process-global clock source (tests). *)

val uninstall : unit -> unit
(** Restore the real clocks: [CLOCK_MONOTONIC] for wall, [Sys.time] for
    CPU, [Unix.sleepf] for sleep. *)

val source : unit -> source
(** The currently installed source (so wrappers — e.g. fault-injected
    slowdowns — can decorate rather than replace it). *)

val overridden : unit -> bool
(** [true] when a source other than the real clocks is installed — i.e.
    the process runs in deterministic-replay mode. Recorders use this
    to suppress measurements that no fake source can replay (GC
    allocation deltas), keeping fake-clock traces byte-reproducible. *)

val wall : unit -> float
(** Current wall time from the installed source. *)

val cpu : unit -> float
(** Current CPU time from the installed source. *)

val sleep : float -> unit
(** Block via the installed source. *)

val manual : ?start:float -> unit -> source * (float -> unit)
(** [manual ()] is a fake source plus an [advance] function that moves
    both wall and CPU time forward by the given number of seconds; its
    [sleep] advances the same fake time instead of blocking. *)
