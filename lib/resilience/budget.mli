(** Composable computational budgets for the steady-state engines.

    A budget bounds a solve by wall-clock time and/or iteration counts.
    Solvers *tick* the budget as they burn iterations (Newton steps,
    Krylov inner iterations, continuation steps); a tick past any limit
    raises {!Exhausted}, which the solver catches and converts into a
    clean outcome instead of hanging or burning unbounded CPU.

    Budgets compose: a child created with [~parent] shares the parent's
    counters (ticks propagate up) and a check on the child also checks
    every ancestor, so a per-stage budget can never outlive the solve's
    overall deadline. *)

type exhaustion =
  | Wall_clock of { limit : float; elapsed : float }
  | Newton_iterations of { limit : int; used : int }
  | Linear_iterations of { limit : int; used : int }
  | Continuation_steps of { limit : int; used : int }

exception Exhausted of exhaustion

type t

val make :
  ?wall_seconds:float ->
  ?max_newton:int ->
  ?max_linear:int ->
  ?max_continuation:int ->
  ?parent:t ->
  unit ->
  t
(** Fresh budget; the wall clock starts now. Omitted limits are
    unbounded. *)

val of_limits : ?wall_seconds:float -> ?max_newton:int -> unit -> t option
(** [None] when neither limit is given (no budget at all), otherwise a
    fresh {!make} budget with those limits. *)

val elapsed : t -> float
(** Wall-clock seconds since creation. *)

val exhausted : t -> exhaustion option
(** Non-raising check of this budget and all ancestors. *)

val check : t -> unit
(** @raise Exhausted when any limit of this budget or an ancestor is
    exceeded. *)

val tick_newton : ?count:int -> t -> unit
(** Record [count] (default 1) Newton iterations, then {!check}.
    Counters propagate to ancestors. @raise Exhausted *)

val tick_linear : ?count:int -> t -> unit
(** Record linear-solver (Krylov) inner iterations, then {!check}.
    @raise Exhausted *)

val tick_continuation : ?count:int -> t -> unit
(** Record continuation steps, then {!check}. @raise Exhausted *)

val newton_used : t -> int

val linear_used : t -> int

val continuation_used : t -> int

val remaining_seconds : t -> float option
(** Tightest wall-clock headroom across the ancestor chain; [None]
    when no wall limit is set anywhere. *)

val pp_exhaustion : Format.formatter -> exhaustion -> unit

val exhaustion_to_string : exhaustion -> string
