(** The block forward-substitution sweep that preconditions GMRES on
    the MPDE Jacobian.

    M keeps each grid point's dense diagonal block
    D_p = (1/h1 + 1/h2)·C_p + G_p (+ extra_diag·I) — the t1 term only
    when the scheme puts the t1 coupling on the diagonal (backward) —
    and the backward-difference couplings to the lower neighbours
    (i−1, j) and (i, j−1), *dropping the periodic wraps*. In
    lexicographic point order M is block lower-triangular, so M⁻¹ is
    applied in one pass over the points.

    The diagonal blocks are factored with {!Linalg.Lu.factor_in_place}
    and kept in compact form: the permutation, the nonzero strict-L and
    strict-U entries by row, and the diagonal. A point shares the
    previous point's pattern (permutation plus L/U column indices) when
    it is identical. Substitution over the stored nonzeros only performs
    the dense substitution's arithmetic in the same order, minus
    products whose factor entry is exactly zero; for finite operands
    those products cannot change the running sum except for the sign of
    an exact zero, so the apply matches a dense per-point
    {!Linalg.Lu.solve_into} sweep bitwise. *)

type t

val create : n:int -> np:int -> t
(** Workspace for [np] grid points of [n] unknowns each. *)

val fits : t -> n:int -> np:int -> bool
(** Can this workspace serve a problem of that shape? *)

val build :
  t ->
  Assemble.scheme ->
  Grid.t ->
  jacs:(Sparse.Csr.t * Sparse.Csr.t) array ->
  extra_diag:float ->
  unit
(** Stamp and factor every diagonal block from the per-point
    [(G, C)] Jacobians. When all blocks are equal (a replicated
    iterate, such as the DC seed) one factor serves every point.
    Records the [mpde.precond.build] span and the
    [mpde.precond.patterns] gauge.
    @raise Linalg.Lu.Singular on a singular block. *)

val apply :
  t ->
  Assemble.scheme ->
  Grid.t ->
  jacs:(Sparse.Csr.t * Sparse.Csr.t) array ->
  Linalg.Kernel.vec ->
  Linalg.Kernel.vec
(** [apply t scheme g ~jacs r] returns M⁻¹ r in the workspace's output
    buffer (overwritten by the next call). [jacs] supply the coupling
    blocks C and must be the ones the last {!build} saw.
    @raise Invalid_argument unless a {!build} has completed. *)

val patterns : t -> int
(** Runs of one shared pattern in point order in the last build: 1 when
    every point has the same permutation and L/U structure. *)
