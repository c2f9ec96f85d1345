(** Fast-scale column problems: the [n1] circuit states over one fast
    period treated as a single nonlinear system, either quasi-static
    (slow derivative dropped) or as one backward-Euler step of the
    envelope march. Both are the one periodic collocation kernel,
    {!Numeric.Collocation} with a backward difference in [t1] — the
    problem [Steady.Periodic_fd] solves — the march adding its [t2]
    step as the kernel's [anchor]. Shared by {!Envelope_follow} and the
    MPDE solver's quasi-static initializer. *)

val frozen_column :
  ?max_newton:int ->
  ?tol:float ->
  ?seed:Linalg.Vec.t ->
  Assemble.system ->
  n1:int ->
  shear:Shear.t ->
  t2:float ->
  Linalg.Vec.t array
(** Fast-scale periodic steady state with the slow scale frozen at
    [t2]. @raise Failure if Newton fails. *)

val march_step :
  ?max_newton:int ->
  ?tol:float ->
  Assemble.system ->
  n1:int ->
  shear:Shear.t ->
  t2:float ->
  h2:float ->
  prev:Linalg.Vec.t array ->
  Linalg.Vec.t array * int * bool
(** One backward-Euler envelope step from the previous column to slow
    time [t2]; returns [(column, newton_iterations, converged)]. *)
