(** Matrix-free restarted GMRES.

    The operator and the (right) preconditioner are closures over the
    unboxed Float64 {!Linalg.Kernel.vec}s the solver runs on, so it can
    be driven by explicit CSR matrices ({!Csr.mul_vec_ba_into}), by the
    structure-exploiting MPDE block sweep, or fully matrix-free. *)

type operator = Linalg.Kernel.vec -> Linalg.Kernel.vec

type stop_reason =
  | Tolerance  (** residual met the convergence target *)
  | Happy_breakdown  (** Krylov subspace became invariant (exact solve) *)
  | Poisoned  (** operator/preconditioner produced a non-finite vector *)
  | Budget_exhausted
  | Max_iterations

type result = {
  x : Linalg.Vec.t;
  converged : bool;
  iterations : int;  (** total inner iterations performed *)
  residual_norm : float;  (** final preconditioned-system residual norm *)
  restarts : int;  (** restart cycles entered *)
  stop : stop_reason;  (** why the iteration ended *)
}

type workspace
(** Preallocated GMRES scratch (Krylov basis, Hessenberg columns,
    rotation coefficients, residual/update vectors) for a fixed
    [(restart, n)] shape. Basis vectors are created at their first
    use, so a solve pays only for the columns it reaches. Reusing one
    across calls removes every allocation inside the restart loop once
    those columns exist, and keeps no values between calls: a solve on
    a used workspace is bitwise the solve on a fresh one. A workspace belongs to one solve stream on one domain — it
    must not be shared concurrently. *)

val workspace : restart:int -> n:int -> workspace
(** Scratch for systems of size [n] solved with up to [restart] inner
    iterations per cycle; the basis vectors are allocated later, as
    they are first used. *)

val gmres :
  ?restart:int ->
  ?max_iter:int ->
  ?tol:float ->
  ?precond:operator ->
  ?product:operator ->
  ?budget:Resilience.Budget.t ->
  ?x0:Linalg.Vec.t ->
  ?workspace:workspace ->
  ?out:Linalg.Vec.t ->
  operator ->
  Linalg.Vec.t ->
  result
(** [gmres op b] solves [op x = b] with right preconditioning:
    the Krylov space is built for [op ∘ precond] and the returned [x]
    is [precond y]. Defaults: [restart = 50], [max_iter = 500],
    [tol = 1e-10] (relative to [‖b‖], absolute when [b = 0]), and the
    identity preconditioner (which copies into workspace storage, never
    returning its argument). Raises [Invalid_argument] when
    [restart < 1].

    [product v] must return [op (precond v)] up to rounding; each
    Arnoldi step applies it once, and [op] alone then only forms the
    true residual [b − op x] at a restart (never on the first cycle
    without [x0]). It defaults to exactly [op (precond v)]. A caller
    whose preconditioner yields the product more cheaply than a fresh
    [op] apply passes it here — the MPDE block sweep gives
    [J·M⁻¹v = v + (J − M)·M⁻¹v] for the few couplings [J − M] it
    drops. Telemetry: [gmres.apply_op] times every [op] apply (the
    default product's too) and [gmres.orth] the Gram-Schmidt step.

    Robustness: happy breakdown (zero Hessenberg subdiagonal) returns
    the exact iterate instead of dividing by zero; a non-finite basis
    vector terminates the sweep with the last finite iterate instead of
    polluting the Givens QR with NaNs; [budget], when given, is checked
    per inner iteration and at restarts, terminating with
    [converged = false] (never raising) when it runs out.

    [workspace] supplies preallocated scratch (ignored and rebuilt
    locally if its shape does not cover [(restart, n)]). [out] (length
    [n]), when given, receives the solution and is the returned [x];
    otherwise [x] is a fresh array. Buffer
    contract: [op], [precond] and [product] may return a shared internal
    buffer, the same one for all three — GMRES copies anything it keeps
    before the next call, and may mutate the returned vector in place.
    None of them may return or mutate its argument. *)
