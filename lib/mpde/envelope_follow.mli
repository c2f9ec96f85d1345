(** Envelope-following (initial-value) mode of the MPDE: instead of
    bi-periodic boundary conditions, integrate along the slow scale
    [t2] with backward Euler, solving at each slow step a fast-scale
    periodic problem. This handles aperiodic slow-scale content (one-
    shot symbol sequences, start-up transients of the envelope) — the
    “envelope simulation” capability of the multi-time family the
    paper's introduction refers to. Each slow step is one
    {!Fast_column.march_step}: the shared periodic collocation kernel
    with a backward-Euler anchor in [t2]. *)

type result = {
  t2_values : float array;  (** slow-time instants, [steps + 1] of them *)
  columns : Linalg.Vec.t array array;
      (** [columns.(s).(i)] is the circuit state at fast index [i] and
          slow time [t2_values.(s)] *)
  newton_iterations : int;
  converged : bool;
}

val run :
  ?max_newton:int ->
  ?tol:float ->
  ?x_init:Linalg.Vec.t array ->
  ?seed:Linalg.Vec.t ->
  system:Assemble.system ->
  shear:Shear.t ->
  n1:int ->
  t2_stop:float ->
  steps:int ->
  unit ->
  result
(** March the envelope from [t2 = 0] to [t2_stop]. [x_init] gives the
    starting fast-scale column (default: the quasi-static
    {!Fast_column.frozen_column} at [t2 = 0]). *)

val envelope_of : result -> unknown:int -> mode:Extract.envelope_mode -> float array
