(** Declarative escalation ladder: a list of solve strategies tried in
    order until one succeeds.

    This generalizes the SPICE convergence ladder already used ad hoc by
    [Circuit.Dcop] (Newton → gmin stepping → source stepping) into one
    strategy interface shared by every engine. Each stage declares the
    failure classes it is worth trying after — e.g. a direct
    sparse-LU solve only makes sense after a *linear-solver* stall,
    while source ramping addresses *nonlinear* divergence — so the
    ladder skips stages that cannot help.

    Stage bodies may raise {!Guard.Non_finite} (recorded as a
    [Non_finite] failure; escalation continues) and {!Budget.Exhausted}
    (recorded; the remaining rungs are skipped and the ladder stops —
    a deadline applies to the whole climb, not one rung). *)

type failure =
  | Linear_stall  (** the linear solver inside Newton stalled or broke *)
  | Nonlinear  (** Newton diverged, stalled, or ran out of iterations *)
  | Non_finite of Guard.violation  (** evaluation produced NaN/Inf *)
  | Exhausted of Budget.exhaustion  (** budget ran out mid-stage *)

type 'a stage = {
  name : string;
  applies : failure option -> bool;
      (** given the previous stage's failure ([None] for the first
          executed stage), should this stage run? *)
  attempt : unit -> ('a, failure * string) result;
}

type record = {
  stage : string;
  status : [ `Success | `Failed of string | `Skipped ];
  wall_seconds : float;
}

type 'a run = {
  value : 'a option;  (** the first successful stage's result *)
  strategy : string option;  (** name of the successful stage *)
  records : record list;  (** one per declared stage, in declaration order *)
  last_failure : failure option;  (** failure of the last executed stage *)
}

val always : failure option -> bool

val on_linear_stall : failure option -> bool
(** True when the previous failure was [Linear_stall]. *)

val on_nonlinear : failure option -> bool
(** True when the previous failure was [Nonlinear] or [Non_finite]. *)

val run : ?budget:Budget.t -> 'a stage list -> 'a run
(** Execute the ladder. [budget], when given, is checked before each
    stage; exhaustion (raised by a stage or detected between stages)
    marks the remaining stages [`Skipped] and stops the climb. *)

val pp_failure : Format.formatter -> failure -> unit
