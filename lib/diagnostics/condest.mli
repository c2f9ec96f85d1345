(** Condition-number estimation by power iteration on existing
    factorizations.

    The estimators reuse the LU solve the engines already paid for, so a
    κ estimate costs a handful of matvecs and triangular solves — no new
    factorization, no SVD.

    Dense: [sigma_max(A)] via power iteration on [AᵀA] (matvec +
    transposed matvec), and [sigma_max(A⁻¹)] the same way using
    [Lu.solve] / [Lu.solve_transposed]. The product is a genuine 2-norm
    condition estimate.

    Sparse CSR: [sigma_max(A)] as above via [Csr.mul_vec] /
    [Csr.tmul_vec]; {!Splu} has no transposed solve, so [A⁻¹] is probed
    by plain power iteration (spectral radius), giving a {e lower bound}
    on [sigma_max(A⁻¹)] — and thus on κ. That is the useful direction
    for health reporting: a large estimate is trustworthy.

    All starting vectors come from a deterministic LCG so repeated runs
    agree to the last bit. *)

val condest_dense : Linalg.Mat.t -> Linalg.Lu.t -> float
(** 2-norm condition estimate [sigma_max(A) * sigma_max(A⁻¹)] for a
    square matrix with its factorization. [infinity] when the inverse
    probe overflows. *)

val condest_csr : Sparse.Csr.t -> Sparse.Splu.t -> float
(** Condition estimate (lower bound, see above) for a sparse matrix with
    its factorization. *)
