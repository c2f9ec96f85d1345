(** Implicit fixed-step time-stepping for {!Dae.t} systems: backward
    Euler and trapezoidal, each solved with damped Newton and sparse LU.
    Backward Euler is the SPICE-transient substrate and the engine for
    single-time shooting; trapezoidal steps the MPDE's diagonal
    consistency check. *)

type method_ = Backward_euler | Trapezoidal

type step_result = {
  x : Linalg.Vec.t;
  newton_iterations : int;
  converged : bool;
  outcome : Newton.outcome;  (** the inner Newton outcome, for triage *)
}

type workspace
(** Per-stream step state: [q], [f], [G] and [C] at the last point the
    workspace evaluated, written by one {!Dae.t}[.load] pass over the
    devices ([G] and [C] on frozen sparsity patterns, rebuilt from
    {!Dae.t}[.jacobians] when a load reports that the pattern changed),
    the step Jacobian [J = (1/h) C + β G] on the union pattern,
    refactored in place with {!Sparse.Splu.refactor_or_factor}, and the
    residual's [b] buffers. Newton's solve at an iterate follows the
    residual at that iterate, so it factors the [G] and [C] that
    residual loaded: a Newton iteration walks the devices once. The
    evaluation and the factor are kept with their key — the bits of
    the iterate, plus the two scales for the factor — so asking again
    at the same point costs nothing. Single-domain: create one per
    solve stream. *)

val workspace : Dae.t -> workspace

val linearize : workspace -> method_:method_ -> h:float -> Linalg.Vec.t -> unit
(** [linearize ws ~method_ ~h x] evaluates [G(x)], [C(x)] and factors
    [method_]'s step Jacobian at [x] for step size [h] (a no-op when the
    held factor has the same key).
    @raise Sparse.Splu.Singular when [J] is singular. *)

val solve_columns : workspace -> Linalg.Vec.t array -> unit
(** [solve_columns ws cols] overwrites each column with [J⁻¹] of it for
    the last factored [J], through {!Sparse.Splu.solve_columns}.
    @raise Invalid_argument when no factor is held. *)

val structure : workspace -> int
(** A counter of the workspace's structural changes: it moves when G
    and C are rebuilt on new patterns (a load reports drift) and when the
    step Jacobian gets a fresh factor, hence a new pivot order, instead
    of a replay on the held one. Nothing else moves it. Every other
    piece of workspace state is a cache keyed by the bits of its point,
    so while the counter stands still an {!implicit_step} is a pure
    function of [x_prev], [t_next], [h], the method and the Newton
    options: two runs from bitwise-equal states under the same count
    produce bitwise-equal results. *)

val charge_jacobian : workspace -> Sparse.Csr.t
(** [C] at the last evaluated iterate. The workspace overwrites its
    values on the next evaluation; copy what must outlive it. *)

val implicit_step :
  ?newton_options:Newton.options ->
  method_:method_ ->
  workspace:workspace ->
  t_next:float ->
  h:float ->
  x_prev:Linalg.Vec.t ->
  unit ->
  step_result
(** Single implicit step to [t_next] of size [h] for the workspace's
    DAE. Trapezoidal needs [b] and [f] at the previous time, which it
    takes at [x_prev] and [t_next -. h]. Each Newton iteration factors
    [J] through {!linearize}, so the first iteration reuses a factor
    already held at [x_prev].

    The step's Newton problem is built once per workspace and runs on
    the workspace's {!Newton.workspace}; the step residual is written
    from the workspace's [q]/[f] vectors and a source evaluated once
    per step through {!Dae.t}[.source_into]; the Jacobian is
    refreshed in place and refactored without allocation. [q] and [f]
    are keyed on the bits of the point they were evaluated at, so
    [q(x_prev)] and the first residual reuse the previous step's
    accepted iterate's instead of evaluating them again. What a step
    allocates is its result (the record and a copy of the iterate),
    and whatever the DAE's device models allocate. *)

type trace = { times : float array; states : Linalg.Vec.t array }

val transient :
  ?newton_options:Newton.options ->
  ?method_:method_ ->
  dae:Dae.t ->
  x0:Linalg.Vec.t ->
  t0:float ->
  t1:float ->
  steps:int ->
  unit ->
  trace
(** Fixed-step transient from [t0] to [t1], every step sharing one
    {!workspace}; the trace includes the
    initial point, so it has [steps + 1] entries. When a
    {!Resilience.Budget.t} carried in [newton_options] runs out the
    trace is truncated at the last completed step instead (check the
    budget to distinguish).
    @raise Failure if a Newton solve fails even after internal step
    halving (up to 8 levels). *)

val sample : trace -> int -> float array
(** [sample trace k] extracts the time series of unknown [k]. *)
