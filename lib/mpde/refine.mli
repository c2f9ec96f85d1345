(** Grid-convergence estimation for the MPDE solver: solve, double each
    grid direction in turn, and compare the solutions at shared grid
    points. *)

val estimate_errors :
  ?options:Solver.options ->
  ?seed:Linalg.Vec.t ->
  Assemble.system ->
  shear:Shear.t ->
  n1:int ->
  n2:int ->
  Solver.solution * float * float
(** [(solution, err_t1, err_t2)] — the base solve plus the two
    direction-wise Richardson-style error estimates: the max abs
    difference, over all unknowns, against the t1- and t2-doubled grids
    at the shared points. *)
