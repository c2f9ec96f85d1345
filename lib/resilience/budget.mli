(** Composable computational budgets for the steady-state engines.

    A budget bounds a solve by wall-clock time and/or a Newton
    iteration count. Solvers *tick* the budget per Newton iteration and
    {!check} it at their other loop heads (Krylov inner iterations,
    continuation and ladder steps); a tick or check past either limit
    raises {!Exhausted}, which the solver catches and converts into a
    clean outcome instead of hanging or burning unbounded CPU.

    Budgets compose: a child created with [~parent] shares the parent's
    counters (ticks propagate up) and a check on the child also checks
    every ancestor, so a per-stage budget can never outlive the solve's
    overall deadline. *)

type exhaustion =
  | Wall_clock of { limit : float; elapsed : float }
  | Newton_iterations of { limit : int; used : int }

exception Exhausted of exhaustion

type t

val make : ?wall_seconds:float -> ?max_newton:int -> ?parent:t -> unit -> t
(** Fresh budget; the wall clock starts now. Omitted limits are
    unbounded. *)

val of_limits : ?wall_seconds:float -> ?max_newton:int -> unit -> t option
(** [None] when neither limit is given (no budget at all), otherwise a
    fresh {!make} budget with those limits. *)

val exhausted : t -> exhaustion option
(** Non-raising check of this budget and all ancestors. *)

val check : t -> unit
(** @raise Exhausted when any limit of this budget or an ancestor is
    exceeded. *)

val tick_newton : ?count:int -> t -> unit
(** Record [count] (default 1) Newton iterations, then {!check}.
    Counters propagate to ancestors. @raise Exhausted *)

val pp_exhaustion : Format.formatter -> exhaustion -> unit

val exhaustion_to_string : exhaustion -> string
