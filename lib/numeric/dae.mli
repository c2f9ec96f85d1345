(** Differential-algebraic systems in charge/flux form,

    [d/dt q(x) + f(x) = b(t)],

    the canonical circuit-equation shape (paper eq. (1)). Produced by the
    MNA assembler in [lib/circuit] and consumed by the transient
    integrators, the single-time steady-state methods, and the MPDE
    solver. *)

type fast = {
  eval_f_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [eval_f_into x out] overwrites [out] with [f(x)] *)
  eval_q_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  source_into : float -> Linalg.Vec.t -> unit;
      (** [source_into t out] overwrites [out] with [b(t)], the same
          floats as [source t] *)
  jacobian_refresher :
    unit -> Linalg.Vec.t -> g:Sparse.Csr.t -> c:Sparse.Csr.t -> bool;
      (** [jacobian_refresher ()] allocates a private stamping workspace
          and returns a closure that rewrites [g]/[c] values in place at
          a new iterate (same float results, bitwise, as a fresh
          [jacobians] call). Returns [false] — values then unspecified —
          when a stamp that is not exactly zero has no slot in the
          given matrices' patterns; the caller must rebuild via
          [jacobians]. Each returned closure owns its workspace, which
          keeps one slot map per distinct pattern structure it is
          handed: create one per solve stream (never share across
          domains). *)
}
(** Allocation-free variants of the evaluation callbacks, for hot paths
    that keep workspaces (the MPDE assembler and
    {!Integrator.workspace}). Optional: producers that
    cannot provide them leave [fast = None] and callers fall back to
    the allocating closures. *)

type t = {
  size : int;
  eval_f : Linalg.Vec.t -> Linalg.Vec.t;  (** conductive terms [f(x)] *)
  eval_q : Linalg.Vec.t -> Linalg.Vec.t;  (** charge/flux terms [q(x)] *)
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
      (** [(G, C) = (∂f/∂x, ∂q/∂x)], both [size] x [size] *)
  source : float -> Linalg.Vec.t;  (** excitation [b(t)] *)
  fast : fast option;
}

val linear : g:Sparse.Csr.t -> c:Sparse.Csr.t -> source:(float -> Linalg.Vec.t) -> t
(** Convenience constructor for linear time-invariant systems. *)
