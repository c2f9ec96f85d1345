(** Discretization of the MPDE (paper eq. (4))

    [∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) = b̂(t1, t2)]

    on the bi-periodic grid, one {!Numeric.Collocation.operator} per
    artificial time. At point [(i, j)] the residual is
    [(Σ_l w1_il·q_lj)/s1 + (Σ_m w2_jm·q_im)/s2 + f − b], and the
    residual, the Jacobian stamp and the matrix-free [J·v] all walk this
    one tensor-product stencil. *)

type system = {
  size : int;  (** circuit unknowns per grid point, [dae.size] *)
  dae : Numeric.Dae.t;
      (** the circuit's q, f and Jacobians; the MPDE takes its
          excitation from [source_into] alone, and {!to_dae} replaces
          [dae.source_into] along a path *)
  source_into : t1:float -> t2:float -> Linalg.Vec.t -> int -> unit;
      (** [source_into ~t1 ~t2 out off] writes [b̂(t1, t2)] into [out]
          at [off..off+size-1]. From {!of_mna} it allocates only one
          phase per source frequency. *)
  linear : bool;
      (** [f] and [q] are linear in the unknowns ({!of_mna} of a circuit
          without device models; [false] from {!of_dae}) *)
}

val of_mna : shear:Shear.t -> Circuit.Mna.t -> system
(** Wire a circuit's MNA equations to the sheared excitation. *)

val of_dae : Numeric.Dae.t -> system
(** For systems built directly as DAEs: the excitation is taken on the
    fast scale only, [b̂(t1,t2) = b(t1)] — valid for single-tone sources.
    No shear is involved (which is why none is accepted); prefer
    {!of_mna} for multi-tone excitations, where the shear warps each
    source's phase individually. *)

val source_at : system -> t1:float -> t2:float -> Linalg.Vec.t
(** [b̂(t1, t2)] in a fresh vector: [source_into] at offset 0. *)

val sources_into : system -> Grid.t -> Linalg.Vec.t -> unit
(** [sources_into sys g out] writes [b̂] at every point of [g] into
    [out] (length [points · size], point p at offset [p·size]): one
    [source_into] per point at its [(Grid.t1_of g i, Grid.t2_of g j)]. *)

val to_dae : system -> source:(float -> Linalg.Vec.t) -> Numeric.Dae.t
(** The one-time DAE of the system along a path through the
    [(t1, t2)] plane, given as its excitation [source t]: e.g.
    [fun t1 -> source_at sys ~t1 ~t2] for the fast column at a fixed
    [t2], or [fun t -> source_at sys ~t1:t ~t2:t] for the diagonal.
    Its [source_into t] writes exactly the floats of [source t]; q, f
    and the Jacobians are the system's. *)

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

val sources_on_grid : system -> Grid.t -> Linalg.Vec.t
(** [b̂] at every grid point, flattened like the iterate, in a fresh
    vector ({!sources_into}; precompute once — the excitation does not
    depend on the iterate). *)

val residual :
  scheme -> system -> Grid.t -> sources:Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t
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
    per-point Jacobian patterns, the per-point q buffers — at the first
    call and only rewrites float values on later Newton iterations.
    Each residual walks the devices once per grid point
    ({!Numeric.Stacked.load}), writing q, f, G and C together; the
    Jacobians of a solve at the residual's iterate are those values, so
    a Newton iteration walks the devices once. The
    Jacobian is bitwise identical to the one-shot path (the load sums
    each slot's stamps in the duplicate-merge order of a fresh build,
    and the big CSR's refresh replays the same walk as its build). A
    workspace belongs to one solve stream on one domain; it must never
    be shared concurrently. *)

type workspace

val workspace : scheme -> system -> Grid.t -> workspace
(** Allocate reusable assembly scratch for a (scheme, system, grid)
    triple, with the operator pair's stencil kept per operator row.
    Validates the grid eagerly (see {!operators}). *)

val rebind : workspace -> scheme -> system -> Grid.t -> workspace
(** [rebind ws scheme sys g] is a workspace for a new job: [ws] itself
    when [sys.size] and the grid's point count match its own, with its
    per-point buffers and matrices kept and everything bound to the old
    job dropped (its results are then those of a fresh workspace, bit
    for bit); a fresh {!workspace} otherwise. *)

val workspace_operators :
  workspace -> Numeric.Collocation.operator * Numeric.Collocation.operator
(** The workspace's {!operators} pair, the same values on every call. *)

val residual_into :
  workspace -> sources:Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [residual_into ws ~sources x r] writes {!residual} at [x] into [r]
    (length [points · size]), reusing the workspace's internal
    buffers: it allocates nothing of the grid's size. It loads G and C
    at [x] too, for a following {!point_jacobians_ws} at the same [x].
    @raise Invalid_argument unless [x], [r] and [sources] all have
    length [points · size]. *)

val point_jacobians_ws :
  workspace -> Linalg.Vec.t -> (Sparse.Csr.t * Sparse.Csr.t) array
(** Like {!point_jacobians}, on the workspace's cached CSR instances
    ({!Numeric.Stacked.jacobians}): when [x] is the last
    {!residual_into}'s iterate bit for bit, the values that residual
    loaded; otherwise a load of every point at [x]. A point whose stamps
    left its pattern at [x] (a stamp crossed an exact zero) is rebuilt
    from [dae.jacobians]. Every value is bitwise a fresh build's (an
    entry a shared pattern has and a fresh build lacks holds +0). The
    returned array and its matrices are owned by the workspace and
    overwritten by the next load. *)

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
