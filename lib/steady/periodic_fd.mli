(** Periodic steady state by finite-difference collocation over one
    period (“time-discretization across one period”, paper §3): the
    states at [N] uniform time points are solved simultaneously with
    backward-difference coupling and a periodic wrap. This is exactly
    the one-dimensional specialization of the MPDE grid solver and
    serves both as a baseline and as a cross-check for it.

    The solve is {!Solution.collocate} with
    {!Numeric.Collocation.backward_difference}, the same kernel the
    MPDE's fast column and {!Hb} run. The result is a {!Solution.t}
    whose [trace] holds the [N] collocation times and states (no
    duplicated endpoint). *)

val solve :
  ?max_newton:int ->
  ?tol:float ->
  ?budget:Resilience.Budget.t ->
  ?x_init:Linalg.Vec.t ->
  dae:Numeric.Dae.t ->
  period:float ->
  points:int ->
  unit ->
  Solution.t
(** [x_init] seeds every collocation point (e.g. the DC operating
    point). System size is [points * dae.size]; the Jacobian is solved
    with the general sparse LU. *)
