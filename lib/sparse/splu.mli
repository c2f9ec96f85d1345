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
    vectors, so a replay by {!refactor_or_factor} and {!solve_into}
    allocate nothing; that
    scratch makes a factor single-domain, like the workspaces that hold
    one. @raise Singular when structurally or numerically singular. *)

val refactor_or_factor : t option -> Csr.t -> t
(** [refactor_or_factor prev a] factors [a], reusing [prev] when it can.
    The replay is a numeric-only refactorization on [prev]'s frozen
    symbolic structure: it reuses the reach sets, fill pattern, pivot
    order and column map and recomputes [L]/[U] values in place, then
    returns [prev]. It allocates nothing, and replaying the originally
    factored values is bitwise identical to {!factor}. With changed
    values the fixed pivot order no longer tracks the threshold-pivoting
    choice, so accuracy can degrade for strongly changed matrices (the
    standard KLU-style refactor trade-off).

    A replay needs [a] to share its pattern arrays (physically) with
    the matrix [prev] factored, and [prev]'s stored structure to be
    complete ([factor] drops L entries whose value is exactly [0.],
    losing the symbolic information a replay needs). When either fails,
    or the replay hits a zero or non-finite pivot on the frozen order,
    it is a fresh {!factor}. A failed replay leaves [prev]'s values
    unspecified; use the returned factor.
    @raise Singular when the fresh factor is singular too. *)

val solve : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [solve lu b] returns [x] with [a x = b]. *)

val solve_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [solve_into lu b out] writes [x] with [a x = b] into [out] through
    the factor's scratch; it allocates nothing. [b] and [out] may be
    the same vector. *)

val solve_columns : t -> Linalg.Vec.t array -> unit
(** [solve_columns lu cols] overwrites each column [cols.(j)] with
    [a⁻¹ cols.(j)], as {!solve_into} would, checking the dimensions
    and counting the solves once for the whole set. It allocates
    nothing. *)
