(** General sparse LU factorization (left-looking Gilbert–Peierls with
    threshold partial pivoting), suitable for MNA and small-to-medium
    MPDE Jacobians.

    Factors square [a] as [P a = L U] with unit-diagonal [L]. Pivoting
    is threshold-based: within each column a candidate pivot is accepted
    if its magnitude is at least [pivot_threshold] times the largest
    candidate, preferring the diagonal entry for sparsity. *)

type t

exception Singular of int
(** Raised with the offending column when no acceptable pivot exists. *)

val factor : ?pivot_threshold:float -> Csr.t -> t
(** [factor a] factors square [a]. [pivot_threshold] in (0, 1], default
    [0.1]. The factor keeps [a]'s column map and two length-[n] scratch
    vectors, so {!refactor} and {!solve_into} allocate nothing; that
    scratch makes a factor single-domain, like the workspaces that hold
    one. @raise Singular when structurally or numerically singular. *)

val refactor : t -> Csr.t -> unit
(** Numeric-only refactorization on the frozen symbolic structure:
    reuses the reach sets, fill pattern, pivot order and column map
    from {!factor} and recomputes [L]/[U] values in place. It allocates
    nothing. Refactoring the originally factored values is bitwise
    identical to {!factor}. With changed values the fixed pivot order
    no longer tracks the threshold-pivoting choice, so accuracy can
    degrade for strongly changed matrices (the standard KLU-style
    refactor trade-off).

    [a] must share its pattern arrays (physically) with the matrix
    originally factored, and the stored structure must be complete
    ([factor] drops L entries whose value is exactly [0.], losing the
    symbolic information a replay needs).
    @raise Invalid_argument when either condition fails.
    @raise Singular on a zero or non-finite pivot. *)

val refactor_or_factor : t option -> Csr.t -> t
(** [refactor_or_factor prev a] factors [a], reusing [prev] when it can:
    {!refactor} in place (and return [prev]) when [a] meets {!refactor}'s
    conditions for [prev], otherwise — or when the replay raises
    {!Singular} on the frozen pivot order — a fresh {!factor}. A failed
    replay leaves [prev]'s values unspecified; use the returned factor.
    @raise Singular when the fresh factor is singular too. *)

val solve : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [solve lu b] returns [x] with [a x = b]. *)

val solve_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [solve_into lu b out] writes [x] with [a x = b] into [out] through
    the factor's scratch; it allocates nothing. [b] and [out] may be
    the same vector. *)

val lu_nnz : t -> int * int
(** [(nnz L, nnz U)] — fill-in diagnostic for the ablation benches. *)

val size : t -> int
