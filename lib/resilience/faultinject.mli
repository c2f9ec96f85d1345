(** Deterministic, seed-driven fault injection for the solver stack.

    A {!plan} is a list of faults, each bound to a hook {!site} and
    armed by a {!trigger}. Hook points live in {!Guard} (residual
    corruption), {!Mpde.Solver} (Jacobian corruption), GMRES (forced
    stagnation), {!Numeric.Newton} (per-iteration crash / slowdown /
    kill) and [Engine.Sweep] (per-job faults). Installing a plan is
    process-global; when none is installed every hook is a single [ref]
    load — the same zero-cost-when-disabled discipline as telemetry.

    {2 Determinism}

    Faults never consult wall time or a global RNG. [Nth] triggers
    count {e per-fault occurrences within the armed scope} (one scope
    per sweep-job attempt, or the implicit root scope for standalone
    solves), so two runs of the same plan on the same jobs fire
    identically — regardless of how many domains execute the sweep or
    in which order jobs are claimed. [Prob] triggers hash
    (seed, scope key, fault index, occurrence) through splitmix64:
    random-looking but exactly reproducible.

    {2 Plan grammar}

    A plan is parsed from a comma-separated spec, e.g.
    ["seed=7,nan@residual/newton:1,crash@job/#1:1"]. Each item is
    either [seed=N] or

    {v KIND@SITE[/FILTER]:TRIGGER[=MAGNITUDE] v}

    - [KIND]: [nan] [inf] [singular] [illcond] [stall] [crash] [slow]
      [kill]
    - [SITE]: [residual] [jacobian] [gmres] [newton] [job]
    - [FILTER]: substring matched against ["<scope key>/<ladder stage>"];
      a sweep scope key is ["<job label>#<attempt>"] (degraded attempt:
      ["#d"]), so ["/newton"] targets a ladder stage, ["#1"] the first
      attempt, and ["fd=8000"] one job of a sweep.
    - [TRIGGER]: [N] (fire on the Nth matching occurrence), [NxM] (fire
      on occurrences N..N+M-1), or [~P] (fire each occurrence with
      probability P).
    - [MAGNITUDE]: kind-specific float — seconds for [slow], scale
      factor for [illcond]. *)

type site = Residual | Jacobian | Gmres | Newton_iter | Job

type kind =
  | Nan  (** overwrite element 0 of the vector with NaN *)
  | Inf  (** overwrite element 0 of the vector with +inf *)
  | Singular  (** zero a Jacobian row: exact singularity *)
  | Ill_conditioned  (** scale a Jacobian row by [magnitude] *)
  | Stall  (** force GMRES to report stagnation without iterating *)
  | Crash  (** raise {!Injected_crash} (a simulated domain death) *)
  | Slow
      (** advance the injected clock by [magnitude] seconds, burning
          wall budget without burning CPU *)
  | Kill  (** [Unix._exit 137]: real process death, for chaos tests *)

type trigger =
  | Nth of { first : int; count : int }
  | Prob of float

type fault = {
  kind : kind;
  site : site;
  filter : string option;
  trigger : trigger;
  magnitude : float option;
}

type plan = { seed : int; faults : fault array }

exception
  Injected_crash of { site : string; occurrence : int; context : string }

val parse : string -> (plan, string) result
(** Parse the spec grammar above. Errors name the offending item. *)

val parse_exn : string -> plan
(** [parse] or [invalid_arg]. *)

val to_string : plan -> string
(** Round-trips through {!parse}. *)

val install : plan -> unit
(** Make [plan] the process-global plan. Wraps the installed
    {!Telemetry.Clock} source so [slow] faults advance wall readings.
    Installing over an existing plan uninstalls it first. *)

val uninstall : unit -> unit
(** Remove the plan and restore the clock source. Idempotent. *)

(** {2 Scopes and stages}

    Scope and stage tracking are unconditional (a few domain-local
    stores), because failure reports want the active ladder stage even
    when no plan is installed. *)

val with_scope : key:string -> (unit -> 'a) -> 'a
(** Run [f] with a fresh occurrence-counter scope named [key] on the
    calling domain (sweep: one scope per job attempt). Resets the
    stage trackers. Nests: the previous scope is restored on exit. *)

val set_stage : string option -> unit
(** Called by {!Ladder} around each stage attempt. [Some name] also
    records [name] as the last stage entered on this domain. *)

val last_stage : unit -> string option
(** The most recent stage entered on this domain since the enclosing
    scope began — survives the stage's exit, so an exception handler
    can report where the ladder was. *)

(** {2 Hook points}

    Every hook is O(1) and allocation-free when no plan is installed. *)

val corrupt_vector : site -> Linalg.Vec.t -> unit
(** Fire [nan]/[inf] faults at [site] by mutating the vector in place;
    also executes any [crash]/[slow]/[kill] faults bound to [site]. *)

val jacobian_fault : unit -> [ `Singular | `Scale of float ] option
(** Consult [jacobian]-site faults: [`Singular] for [singular],
    [`Scale m] for [illcond]; executes [crash]/[slow]/[kill]. *)

val gmres_stall : unit -> bool
(** [true] when a [stall] fault bound to the [gmres] site fires;
    executes [crash]/[slow]/[kill]. *)

val fire_point : site -> unit
(** Pure side-effect site ([newton], [job]): executes
    [crash]/[slow]/[kill] faults. *)

val uniform : seed:int -> salt:string -> int -> float
(** The deterministic PRNG behind [Prob] triggers, exposed for other
    deterministic randomness (retry backoff jitter): splitmix64 of
    (seed, salt, index) mapped to [0, 1). *)
