(** Differential-algebraic systems in charge/flux form,

    [d/dt q(x) + f(x) = b(t)],

    the canonical circuit-equation shape (paper eq. (1)). Produced by the
    MNA assembler in [lib/circuit] and consumed by the transient
    integrators, the single-time steady-state methods, and the MPDE
    solver. Every callback writes into a vector its caller owns, so a
    consumer that keeps its buffers evaluates the system without
    allocating. *)

type t = {
  size : int;
  eval_f_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [eval_f_into x out] overwrites [out] with the conductive
          terms [f(x)] *)
  eval_q_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [eval_q_into x out] overwrites [out] with the charge/flux
          terms [q(x)] *)
  source_into : float -> Linalg.Vec.t -> unit;
      (** [source_into t out] overwrites [out] with the excitation
          [b(t)] *)
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
      (** [(G, C) = (∂f/∂x, ∂q/∂x)], both [size] x [size], freshly
          built *)
  jacobian_refresher : unit -> Linalg.Vec.t -> g:Sparse.Csr.t -> c:Sparse.Csr.t -> bool;
      (** [jacobian_refresher ()] allocates a private stamping workspace
          and returns a closure that rewrites [g]/[c] values in place at
          a new iterate (same float results, bitwise, as a fresh
          [jacobians] call). Returns [false] — values then unspecified —
          when a stamp that is not exactly zero has no slot in the
          given matrices' patterns; the caller must rebuild via
          [jacobians]. A producer without in-place stamping may always
          return [false]. Each returned closure owns its workspace,
          which keeps one slot map per distinct pattern structure it is
          handed: create one per solve stream (never share across
          domains). *)
}

val linear :
  g:Sparse.Csr.t -> c:Sparse.Csr.t -> source_into:(float -> Linalg.Vec.t -> unit) -> t
(** Convenience constructor for linear time-invariant systems. *)
