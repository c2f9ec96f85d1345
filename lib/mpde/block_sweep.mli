(** The block forward-substitution sweep that preconditions GMRES on
    the MPDE Jacobian.

    M keeps each grid point's dense diagonal block
    D_p = (d1_i + 1/h2)·C_p + G_p (+ extra_diag·I), the backward t2
    coupling to (i, j−1), and the t1 operator's couplings to the
    earlier points (l < i, j), *dropping the periodic wraps*. The t1
    terms (its diagonal weight d1_i = w_ii/s and its lower entries)
    enter only when the t1 operator is
    {!Numeric.Collocation.lower_triangular} — then, as for backward
    differences, the sweep is exact up to the wraps; otherwise the sweep
    is a block Gauss-Seidel over the t2 columns and GMRES carries the t1
    coupling. In lexicographic point order M is block lower-triangular,
    so M⁻¹ is applied in one pass over the points.

    The module also knows R = J − M, the stencil entries the sweep does
    not invert, so one sweep gives GMRES its whole Arnoldi product
    J·M⁻¹v = v + R·M⁻¹v ({!product}, Eisenstat's trick) instead of a
    sweep followed by a full matrix-free J·v. The sweep's own couplings
    and R both read one buffer of C_p·y_p, formed once per point as the
    point is solved.

    The diagonal blocks are kept in compact form: the permutation, the
    nonzero strict-L and strict-U entries by row, and the diagonal. A
    point shares the previous point's pattern (permutation plus L/U
    column indices) when it is identical. Substitution over the stored
    nonzeros only performs the dense substitution's arithmetic in the
    same order, minus products whose factor entry is exactly zero; for
    finite operands those products cannot change the running sum except
    for the sign of an exact zero, so the apply matches a dense
    per-point {!Linalg.Lu.solve_into} sweep bitwise.

    Each block is factored straight into the compact store on a
    compiled schedule: for one G/C stamp structure and one pivot order,
    the symbolic factor structure, the store slot of every stamp entry
    and the elimination as slot operations in dense k-order. A point is
    refactored on it when every pivot strictly dominates the rest of its
    column and every slot ends finite and nonzero; the result is then
    bitwise {!Linalg.Lu.factor_in_place}'s (DESIGN.md §12). Otherwise
    the point is stamped into a dense staging block and factored by
    {!Linalg.Lu.factor_in_place}, and its pivot order selects (or
    compiles) the schedule for the next point. Schedules and factor
    patterns stay interned in the workspace across builds. *)

type t

val create : n:int -> np:int -> t
(** Workspace for [np] grid points of [n] unknowns each. *)

val fits : t -> n:int -> np:int -> bool
(** Can this workspace serve a problem of that shape? *)

val build :
  t ->
  Numeric.Collocation.operator * Numeric.Collocation.operator ->
  Grid.t ->
  jacs:(Sparse.Csr.t * Sparse.Csr.t) array ->
  extra_diag:float ->
  unit
(** [build t (op1, op2) g ~jacs ~extra_diag] stamps and factors every
    diagonal block from the per-point [(G, C)] Jacobians and the t1
    operator [op1], and splits the operator pair into M and
    R = J − M, with J the Jacobian {!Assemble.jacobian_apply_ws}
    applies for the same pair (plus [extra_diag·I], which M holds too).
    The pair is passed, not just [op1], so that this one module knows
    both what the sweep inverts and what it drops. R has one entry list
    per t1 row and one per t2 row, the diagonal included:
    - a lower-triangular t1 operator (backward): its wrap at [i = 0];
    - any other t1 operator (central, spectral): every t1 coupling;
    - a backward t2 operator: its wrap at [j = 0];
    - a spectral t2 operator: every t2 coupling, less the backward
      difference M keeps.
    The split is derived once per operator pair and grid. When all
    blocks are equal (a replicated iterate, such as the DC seed) one
    factor serves every point. [jacs] is kept, unmodified, for
    {!apply} and {!product}: the caller must not change it until the
    next build. Records the [mpde.precond.build] span, the
    [mpde.precond.patterns] gauge and the [mpde.precond.refactors]
    counter (blocks factored on a compiled schedule; the dense path
    counts [lu.dense_factors]). A warm build that refactors every point
    allocates nothing per point.
    @raise Linalg.Lu.Singular on a singular block, or one whose pivot
    is below {!Linalg.Lu.default_pivot_tol}, as the dense path would. *)

val apply : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [apply t r] returns y = M⁻¹ r in the workspace's output buffer
    (overwritten by the next {!apply} or {!product}), with the
    couplings and blocks of the last {!build}. As point p is solved,
    C_p·y_p goes to a per-point buffer; the later points' coupling
    terms (w/s)·C_q·y_q and {!product}'s R read it, so each C_p·y_p is
    formed once per sweep. Counts [mpde.precond.sweeps] and records the
    [mpde.precond.apply] span.
    @raise Invalid_argument unless a {!build} has completed. *)

val product : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [product t v] returns J·M⁻¹v = v + R·y with y = M⁻¹v (Eisenstat's
    product): one sweep plus R's entries, which read the buffered
    C_q·y_q. For the backward scheme R touches only the wrap points
    ([i = 0] or [j = 0]), so this costs one {!apply} and a copy of [v];
    for a t1 operator that is not lower-triangular it adds about the
    t1 half of a J·v. The result takes the same output buffer as
    {!apply} (y itself is not kept); it differs from J applied to
    {!apply}'s y by the sweep's rounding only. Same span, counter and
    errors as {!apply}. *)

val c_products : t -> Linalg.Vec.t
(** The per-point C_p·y_p buffer (length [np·n]) that {!apply} and
    {!product} fill and read within one call. Nothing in it survives
    from one call to the next, so between calls it is free scratch of
    the same shape: the solver's matrix-free J·v keeps its own C_p·v_p
    there. *)

val patterns : t -> int
(** Runs of one shared pattern in point order in the last build: 1 when
    every point has the same permutation and L/U structure. *)
