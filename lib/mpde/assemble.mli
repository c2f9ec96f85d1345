(** Discretization of the MPDE (paper eq. (4))

    [∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) = b̂(t1, t2)]

    on the bi-periodic grid, one {!Numeric.Collocation.operator} per
    artificial time. At point [(i, j)] the residual is
    [(Σ_l w1_il·q_lj)/s1 + (Σ_m w2_jm·q_im)/s2 + f − b], and the
    residual, the Jacobian stamp and the matrix-free [J·v] all walk this
    one tensor-product stencil. *)

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
  | Backward  (** backward, backward: fully implicit (default) *)
  | Central_t1  (** central, backward: 2nd order along t1 *)
  | Spectral_t1
      (** spectral, backward: the mixed frequency-time variant —
          harmonic-balance accuracy on the fast scale, time-domain
          backward differences on the slow difference scale. *)
  | Spectral_both
      (** spectral, spectral: algebraically two-tone harmonic balance
          with box truncation over the (f1, fd) lattice. Exact for
          band-limited solutions; inherits HB's weakness on sharp
          switching waveforms, which is the comparison the paper
          draws. *)

val operators :
  scheme -> Grid.t -> Numeric.Collocation.operator * Numeric.Collocation.operator
(** The scheme's t1 and t2 operators; the only code that tells the
    schemes apart. @raise Invalid_argument on a spectral axis with an
    even number of points or fewer than 3. *)

val sources_on_grid : system -> Grid.t -> Linalg.Vec.t array
(** Per-point [b̂] samples in flattened point order (precompute once —
    the excitation does not depend on the iterate). *)

val residual :
  scheme -> system -> Grid.t -> sources:Linalg.Vec.t array -> Linalg.Vec.t -> Linalg.Vec.t
(** Residual of the discretized MPDE at the flattened iterate: one
    {!residual_into} on a fresh {!workspace} and a fresh vector. *)

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
    Newton iterations. The Jacobian is bitwise identical to the
    one-shot path (both stamp through the same loop, and CSR value
    refresh replays the duplicate-merge order of a fresh build). A workspace belongs to one solve stream on one domain; it
    must never be shared concurrently. *)

type workspace

val workspace : scheme -> system -> Grid.t -> workspace
(** Allocate reusable assembly scratch for a (scheme, system, grid)
    triple, with the operator pair's stencil kept per operator row.
    Validates the grid eagerly (see {!operators}). *)

val workspace_operators :
  workspace -> Numeric.Collocation.operator * Numeric.Collocation.operator
(** The workspace's {!operators} pair, the same values on every call. *)

val residual_into :
  workspace -> sources:Linalg.Vec.t array -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [residual_into ws ~sources x r] writes {!residual} at [x] into [r]
    (length [points · size]), reusing the workspace's internal
    buffers: it allocates nothing of the grid's size. *)

val point_jacobians_ws :
  workspace -> Linalg.Vec.t -> (Sparse.Csr.t * Sparse.Csr.t) array
(** Like {!point_jacobians}, but after the first call the cached CSR
    instances are refreshed in place via the system's
    [fast.jacobian_refresher] (falling back to a from-scratch rebuild
    of any point whose sparsity drifted, or of every point when the
    system has no fast interface). The first call builds point 0 from
    scratch only: every other point gets a copy of point 0's pattern
    with values of its own, filled by the refresher, and is rebuilt
    only when its stamps leave that pattern. The refresher replays the
    stamps in [of_coo]'s summation order, so every value is bitwise a
    fresh build's (an entry the copied pattern has and a fresh build
    lacks holds +0). Structurally equal per-point patterns share one
    pair of [row_ptr]/[col_idx] arrays, so the refresher maps the
    stamp stream onto one pattern for the whole grid. The returned
    array and its matrices are owned by the workspace and overwritten
    by the next call. *)

val jacobian_ws : workspace -> Sparse.Csr.t
(** Global sparse Jacobian stamped from the workspace's current
    per-point blocks (call {!point_jacobians_ws} first — raises
    [Invalid_argument] otherwise). The first call assembles the CSR
    symbolically and maps every stamped entry to its value slot; later
    calls add the entries into those slots in stamp order and return
    the {e same} matrix instance, which keeps a downstream
    {!Sparse.Splu.refactor} valid. The slot map is rebuilt when a
    per-point pattern changes, and the matrix when an entry that is
    not exactly zero has no slot. *)

val jacobian_apply_ws :
  workspace ->
  extra_diag:float ->
  cw:Linalg.Vec.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t ->
  unit
(** [jacobian_apply_ws ws ~extra_diag ~cw v out] writes
    [(J + extra_diag·I)·v] into [out] from the current per-point blocks
    (call {!point_jacobians_ws} first), never assembling [J]. [cw]
    (length of [v]) is scratch for the [C_p·v_p]. *)
