(** Discretization of the MPDE (paper eq. (4))

    [∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) = b̂(t1, t2)]

    on the bi-periodic grid. The default scheme is fully implicit
    backward differences in both artificial times (robust for the stiff
    switching circuits the method targets); a central-difference option
    along [t1] is provided for the accuracy-order ablation. *)

type system = {
  size : int;  (** circuit unknowns per grid point *)
  eval_f : Linalg.Vec.t -> Linalg.Vec.t;
  eval_q : Linalg.Vec.t -> Linalg.Vec.t;
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
  source_at : t1:float -> t2:float -> Linalg.Vec.t;  (** [b̂(t1, t2)] *)
  fast : Numeric.Dae.fast option;
      (** allocation-free evaluation callbacks, when the producer has
          them ({!of_mna} does); used by {!workspace} *)
}

val of_mna : shear:Shear.t -> Circuit.Mna.t -> system
(** Wire a circuit's MNA equations to the sheared excitation. *)

val of_dae : Numeric.Dae.t -> system
(** For systems built directly as DAEs: the excitation is taken on the
    fast scale only, [b̂(t1,t2) = b(t1)] — valid for single-tone sources.
    No shear is involved (which is why none is accepted); prefer
    {!of_mna} for multi-tone excitations, where the shear warps each
    source's phase individually. *)

val to_dae : system -> source:(float -> Linalg.Vec.t) -> Numeric.Dae.t
(** The one-time DAE of the system along a path through the
    [(t1, t2)] plane, given as its excitation [source t]: e.g.
    [fun t1 -> sys.source_at ~t1 ~t2] for the fast column at a fixed
    [t2], or [fun t -> sys.source_at ~t1:t ~t2:t] for the diagonal. *)

type scheme =
  | Backward  (** fully implicit backward differences in t1 and t2 (default) *)
  | Central_t1  (** 2nd-order central differences along t1, backward along t2 *)
  | Spectral_t1
      (** exact trigonometric (pseudo-spectral) differentiation along t1 —
          the mixed frequency-time variant: harmonic-balance accuracy on
          the fast scale, time-domain backward differences on the slow
          difference scale. Requires odd [n1]; best with the [Direct]
          linear solver (the Jacobian couples all fast-scale points). *)
  | Spectral_both
      (** pseudo-spectral differentiation along *both* artificial times —
          algebraically this is two-tone harmonic balance with box
          truncation over the (f1, fd) lattice, recovered inside the
          MPDE machinery. Exact for smooth (band-limited) solutions;
          inherits HB's weakness on sharp switching waveforms, which is
          precisely the comparison the paper draws. Requires odd [n1]
          and odd [n2]; use the [Direct] linear solver. *)

val spectral_ok : Grid.t -> bool
(** Whether the grid's [n1] is acceptable for [Spectral_t1] (odd). *)

val spectral_both_ok : Grid.t -> bool
(** Whether both grid dimensions are acceptable for [Spectral_both]. *)

val sources_on_grid : system -> Grid.t -> Linalg.Vec.t array
(** Per-point [b̂] samples in flattened point order (precompute once —
    the excitation does not depend on the iterate). *)

val residual :
  scheme -> system -> Grid.t -> sources:Linalg.Vec.t array -> Linalg.Vec.t -> Linalg.Vec.t
(** Residual of the discretized MPDE at the flattened iterate. *)

val point_jacobians :
  system -> Grid.t -> Linalg.Vec.t -> (Sparse.Csr.t * Sparse.Csr.t) array
(** [(G, C)] per grid point, flattened point order. *)

val jacobian_csr :
  scheme ->
  Grid.t ->
  size:int ->
  jacs:(Sparse.Csr.t * Sparse.Csr.t) array ->
  Sparse.Csr.t
(** Global sparse Jacobian from per-point blocks. *)

val state_of : size:int -> Linalg.Vec.t -> int -> Linalg.Vec.t
(** Extract grid point [p]'s circuit state from the flattened vector. *)

(** {2 Workspace: symbolic-once / numeric-refresh assembly}

    The one-shot entry points above rebuild every buffer and every
    sparsity pattern per call. A {!workspace} instead freezes the
    expensive symbolic work — the big Jacobian's CSR pattern, the
    per-point Jacobian patterns, the charge/conductive evaluation
    buffers — at the first call and only rewrites float values on later
    Newton iterations. Results are bitwise identical to the one-shot
    path (both funnel through the same stencil and stamping loops, and
    CSR value refresh replays the duplicate-merge order of a fresh
    build). A workspace belongs to one solve stream on one domain; it
    must never be shared concurrently. *)

type workspace

val workspace : scheme -> system -> Grid.t -> workspace
(** Allocate reusable assembly scratch for a (scheme, system, grid)
    triple. Validates spectral-grid requirements eagerly. *)

val residual_ws :
  workspace -> sources:Linalg.Vec.t array -> Linalg.Vec.t -> Linalg.Vec.t
(** Like {!residual}, reusing the workspace's internal buffers. The
    returned residual is a fresh array each call (Newton keeps residual
    vectors across iterations); only internal scratch is reused. *)

val point_jacobians_ws :
  workspace -> Linalg.Vec.t -> (Sparse.Csr.t * Sparse.Csr.t) array
(** Like {!point_jacobians}, but after the first call the cached CSR
    instances are refreshed in place via the system's
    [fast.jacobian_refresher] (falling back to a from-scratch rebuild
    of any point whose sparsity drifted, or of every point when the
    system has no fast interface). The returned array and its matrices
    are owned by the workspace and overwritten by the next call. *)

val jacobian_ws : workspace -> Sparse.Csr.t
(** Global sparse Jacobian stamped from the workspace's current
    per-point blocks (call {!point_jacobians_ws} first — raises
    [Invalid_argument] otherwise). The first call assembles the CSR
    symbolically; later calls rewrite values in place and return the
    {e same} matrix instance, which keeps downstream pattern-keyed
    cache ([Splu.refactorable]) valid. *)
