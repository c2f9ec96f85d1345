(** Newton solution of the discretized MPDE.

    Two linear solvers are provided:

    - [Direct]: general sparse LU on the global Jacobian — robust,
      reasonable for grids up to a few thousand points;
    - [Gmres_sweep]: matrix-free GMRES right-preconditioned by a block
      forward-substitution sweep ({!Block_sweep}). With lexicographic
      ordering the backward-difference Jacobian is block
      lower-triangular except for the two periodic wrap couplings, so
      one sweep (factoring only the [n] x [n] diagonal blocks) is a
      very strong preconditioner — the multi-time analogue of the
      matrix-free Krylov shooting of the paper's ref. [10]. Each
      Arnoldi step costs one sweep: {!Block_sweep.product} gives
      J·M⁻¹v from it, and the true J·x
      ({!Assemble.jacobian_apply_ws}) only forms restart residuals.
      The diagonal blocks are refactored exactly from the current
      Jacobian for every linear solve.

    There is no incomplete-factorization rung: an MNA voltage-source or
    inductor branch row has no diagonal entry, so a zero-fill ILU hits
    a zero pivot on every circuit with such a branch, and exact sparse
    LU rescues every stall it could.

    {2 Escalation ladder}

    When plain Newton fails, {!solve} climbs a declarative
    {!Resilience.Ladder}: on a *linear-solver stall* it falls back to
    direct sparse LU ([direct-lu]), the only linear fallback;
    on *nonlinear* failure (divergence, stall, non-finite device
    evaluations) it runs source-stepping continuation (paper §3: “using
    continuation reliably obtained solutions in 10-20m”) and then a
    pseudo-transient (Ptc) relaxation ramp. Residual and Jacobian
    evaluations are guarded: a NaN/Inf is attributed to its MPDE grid
    point and unknown instead of silently poisoning GMRES. The whole
    climb honours [options.budget]; exhaustion produces a clean
    [Exhausted] report rather than a hang. The outcome, winning
    strategy, per-stage records, and residual trajectory are returned
    as a structured {!Resilience.Report.t}. *)

type linear_solver = Direct | Gmres_sweep
(** [Gmres_sweep] runs GMRES with a 60-vector Krylov space, at most 600
    inner iterations and a tolerance relative to the Newton right-hand
    side that is the Eisenstat–Walker forcing term of the Newton solve:
    1e-9 for its first linear solve, then between 1e-9 and 1e-3 from
    the observed residual decrease. *)

exception Linear_stall of string
(** Raised internally by the linear layer on a GMRES stall; captured by
    Newton and classified by the ladder. Exposed for tests. *)

type options = {
  max_newton : int;  (** default 50 (per ladder stage) *)
  tol : float;  (** residual infinity norm, default 1e-8 *)
  scheme : Assemble.scheme;
  linear_solver : linear_solver;
  allow_continuation : bool;
      (** enable the nonlinear escalation rungs (source ramp, Ptc ramp);
          default true *)
  budget : Resilience.Budget.t option;
      (** overall deadline/iteration budget for the whole ladder climb;
          default [None] (unbounded) *)
}

val default_options : options
(** [Gmres_sweep] on the [Backward] scheme. [Engine.Options.to_mpde]
    maps the engine's normalized option vocabulary onto a record update
    of it; see DESIGN.md §11 for the name mapping. *)

type start =
  | Plain  (** Newton from the DC state or zero on the solve's own grid *)
  | Seeded  (** Newton from the caller's full surface *)
  | Nested
      (** Newton from the prolonged solution of the coarser grids: the
          nested start of a cold solve whose first step on the coarsest
          grid barely contracted (DESIGN.md §5) *)

val start_name : start -> string
(** ["plain"], ["seeded"] or ["nested"]. *)

type stats = {
  newton_iterations : int;
      (** cumulated across all ladder stages, the start probe and the
          nested-start levels *)
  converged : bool;
  residual_norm : float;
  linear_iterations : int;  (** cumulated GMRES inner iterations (0 for Direct) *)
  continuation_steps : int;  (** accepted source-ramp/Ptc steps; 0 when plain Newton succeeded *)
  continuation_rejected : int;  (** rejected (halved) continuation steps *)
  strategy : string;  (** winning ladder stage, or ["none"] *)
  start : start;  (** where the winning Newton run started *)
  wall_seconds : float;
}

type solution = {
  grid : Grid.t;
  scheme : Assemble.scheme;  (** the discretization it was computed with *)
  system : Assemble.system;
  big_x : Linalg.Vec.t;
  stats : stats;
  report : Resilience.Report.t;  (** structured machine-readable outcome *)
}

type workspace
(** Per-solve numeric state: assembly scratch, the sweep
    preconditioner's compact factor store, the GMRES
    Krylov basis, the operator buffers, and the same for the
    nested start's coarsest grid. Owned by exactly one solve on one
    domain at a time. *)

val solve :
  ?options:options ->
  ?seed:Linalg.Vec.t ->
  ?workspace_slot:workspace option ref ->
  Assemble.system ->
  Grid.t ->
  solution
(** [seed] is either a single circuit state, replicated to every grid
    point (typically the DC operating point), or a full flattened grid
    state (e.g. from {!quasi_static_start}); default is the zero
    state. Never raises on solver failure: inspect
    [solution.stats.converged] / [solution.report].

    A full-surface seed is foreign: Newton takes at least one step from
    it even when it already meets [tol]. A cold solve (a single-state
    seed or none) of a nonlinear system decides its start on the
    coarsest grid of the halving chain (⌊n1/2⌋×⌊n2/2⌋ while both axes
    keep 3 points): Newton runs there from the seed, and its first step
    is the probe. A step that converges or keeps at most a tenth of
    ‖F‖∞ ends that run, which leaves a [probe@<n1>x<n2>] stage row, and
    plain Newton runs on the solve's grid. Otherwise the run goes on
    as the coarsest level of the nested start: each finer grid runs
    Newton from the prolonged solution of the one below
    ({!Grid.prolong}), and the report lists each coarse level as a
    [newton@<n1>x<n2>] stage row. The probe's steps and the levels'
    count in [newton_iterations] and tick the budget. A failed nested
    start falls back to plain Newton from the seed before the ladder
    escalates (DESIGN.md §5).

    [workspace_slot] is an in-out slot for cross-job workspace reuse
    (one slot per domain in sweep pools): when the retained workspace
    fits this solve's shape (same unknown count and grid points) its
    large numeric buffers are reused and
    every cache bound to the previous job — factors and pattern
    caches — is dropped, so results are identical to a fresh
    workspace; otherwise a fresh workspace is stored into the
    slot. *)

val solve_mna :
  ?options:options ->
  ?seed:Linalg.Vec.t ->
  ?workspace_slot:workspace option ref ->
  shear:Shear.t ->
  n1:int ->
  n2:int ->
  Circuit.Mna.t ->
  solution
(** Convenience: validates source frequencies against the shear
    lattice, computes the DC operating point as seed, and solves.
    An explicit [seed] (single circuit state or full flattened grid
    surface, e.g. a converged [big_x] from a nearby parameter point)
    overrides the DC point when its length fits the grid; otherwise it
    is ignored and the DC seed is used.
    @raise Shear.Off_lattice on inconsistent source frequencies. *)

val state_at : solution -> i:int -> j:int -> Linalg.Vec.t
(** Circuit state at grid point [(i, j)] (indices wrapped). *)

val quasi_static_start :
  ?seed:Linalg.Vec.t -> Assemble.system -> Grid.t -> Linalg.Vec.t
(** Flattened initial guess built by solving, independently for every
    slow grid line [t2_j], the fast-scale periodic problem with the
    slow scale frozen (no [∂/∂t2] term). Much closer to the MPDE
    solution than a replicated DC point when the slow variation is
    strong; pass the result as [solve]'s full-length [seed].
    @raise Failure if any column's Newton fails. *)

val residual_norm_check : solution -> float
(** Recompute ‖residual‖∞ of the stored solution under its own
    [scheme] — a defensive check for tests. *)
