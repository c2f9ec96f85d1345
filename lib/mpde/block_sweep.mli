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
  Numeric.Collocation.operator ->
  Grid.t ->
  jacs:(Sparse.Csr.t * Sparse.Csr.t) array ->
  extra_diag:float ->
  unit
(** [build t op1 g ~jacs ~extra_diag] stamps and factors every diagonal
    block from the per-point [(G, C)] Jacobians and the t1 operator
    [op1]. When all blocks are equal (a replicated
    iterate, such as the DC seed) one factor serves every point.
    Records the [mpde.precond.build] span and the
    [mpde.precond.patterns] gauge.
    @raise Linalg.Lu.Singular on a singular block. *)

val apply :
  t ->
  Grid.t ->
  jacs:(Sparse.Csr.t * Sparse.Csr.t) array ->
  Linalg.Kernel.vec ->
  Linalg.Kernel.vec
(** [apply t g ~jacs r] returns M⁻¹ r in the workspace's output buffer
    (overwritten by the next call), with the t1 couplings the last
    {!build} took from its operator. [jacs] supply the coupling blocks
    C and must be the ones the last {!build} saw.
    @raise Invalid_argument unless a {!build} has completed. *)

val patterns : t -> int
(** Runs of one shared pattern in point order in the last build: 1 when
    every point has the same permutation and L/U structure. *)
