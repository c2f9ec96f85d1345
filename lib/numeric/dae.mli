(** Differential-algebraic systems in charge/flux form,

    [d/dt q(x) + f(x) = b(t)],

    the canonical circuit-equation shape (paper eq. (1)). Produced by the
    MNA assembler in [lib/circuit] and consumed by the transient
    integrators, the single-time steady-state methods, and the MPDE
    solver. Every callback writes into buffers its caller owns, so a
    consumer that keeps its buffers evaluates the system without
    allocating.

    The devices are walked once per iterate: {!t.load} writes q, f and
    the values of G and C at [x] in one pass. A Newton consumer keeps
    the G and C its residual loaded and factors them when the solve at
    the same [x] (bit for bit) follows, so no iterate walks the devices
    twice. *)

type t = {
  size : int;
  source_into : float -> Linalg.Vec.t -> unit;
      (** [source_into t out] overwrites [out] with the excitation
          [b(t)] *)
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
      (** [(G, C) = (∂f/∂x, ∂q/∂x)], both [size] x [size], freshly
          built: their patterns hold the stamps that are not exactly
          zero at [x]. Used where a pattern is first made, or remade
          after [load] reports drift. *)
  load :
    unit ->
    Linalg.Vec.t ->
    q:Linalg.Vec.t ->
    f:Linalg.Vec.t ->
    g:Sparse.Csr.t ->
    c:Sparse.Csr.t ->
    bool;
      (** [load ()] allocates a private stamping workspace and returns
          a closure that, in one walk over the devices at [x],
          overwrites [q] and [f] with [q(x)] and [f(x)] and rewrites the
          values of [g] and [c] in place (the same floats, bit for bit,
          as a fresh [jacobians x] has on its pattern; a slot the fresh
          build lacks holds +0). Returns [false] — [q] and [f] still
          hold, the G/C values are then unspecified — when a stamp that
          is not exactly zero has no slot in the given patterns; the
          caller rebuilds through [jacobians]. Each returned closure
          owns its workspace, which keeps one compiled program per
          distinct pattern structure it is handed: create one per solve
          stream (never share across domains). *)
}

val linear :
  g:Sparse.Csr.t -> c:Sparse.Csr.t -> source_into:(float -> Linalg.Vec.t -> unit) -> t
(** Convenience constructor for linear time-invariant systems. *)
