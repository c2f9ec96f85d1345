(** Homotopy/continuation driver (paper §3: “In cases where
    Newton-Raphson did not converge, using continuation reliably obtained
    solutions”).

    The user supplies a family of Newton problems parameterized by
    [lambda ∈ [0, 1]]; the driver tracks the solution path from an easy
    problem ([lambda = 0], e.g. sources off or heavily gmin-loaded) to
    the target ([lambda = 1]) with adaptive step control. *)

type stats = {
  steps_taken : int;  (** accepted continuation steps *)
  steps_rejected : int;
  newton_iterations : int;  (** cumulative across all steps *)
  converged : bool;
  exhausted : Resilience.Budget.exhaustion option;
      (** set when the trace stopped on a budget limit *)
}

val trace :
  ?initial_step:float ->
  ?min_step:float ->
  ?max_step:float ->
  ?max_total_steps:int ->
  ?budget:Resilience.Budget.t ->
  ?newton_options:Newton.options ->
  problem_at:(float -> Newton.problem) ->
  x0:Linalg.Vec.t ->
  unit ->
  Linalg.Vec.t * stats
(** [trace ~problem_at ~x0 ()] starts by solving at [lambda = 0] from
    [x0]. Steps grow by 2x after easy successes and shrink by 4x on
    failure. Defaults: [initial_step = 0.1], [min_step = 1e-6],
    [max_step = 0.5]. Returns the last iterate even on failure
    ([converged = false]).

    [max_total_steps] (default 200) bounds the *total* number of Newton
    solves, accepted or rejected, so a pathological reject/halve cycle
    terminates. [budget], when given, is checked once per continuation
    step and also installed as the Newton budget (unless
    [newton_options] already carries one); exhaustion halts path
    tracking cleanly with [converged = false] and [exhausted] set. *)
