(** Dense LU factorization with partial pivoting.

    Factors a square matrix [a] as [P a = L U] where [P] is a row
    permutation, [L] unit lower triangular and [U] upper triangular, both
    stored packed in a single matrix. *)

type t
(** A computed factorization. *)

exception Singular of int
(** Raised with the offending pivot column when the matrix is numerically
    singular (pivot magnitude below the singularity threshold). *)

val factor : ?pivot_tol:float -> Mat.t -> t
(** [factor a] computes the factorization of square [a]. [a] is not
    modified. @raise Singular if a pivot underflows [pivot_tol]
    (default {!default_pivot_tol}). @raise Invalid_argument on
    non-square input. *)

val default_pivot_tol : float
(** [1e-300]: the pivot magnitude below which {!factor} and
    {!factor_in_place} raise {!Singular} by default. *)

val factor_in_place : ?pivot_tol:float -> Mat.t -> perm:int array -> unit
(** Like {!factor} but overwrites [a] with the packed [L\U] factors and
    writes the row permutation into [perm] (length [n]) instead of
    allocating either — for workspace-style callers that restamp and
    refactor the same staging matrix every rebuild. *)

val packed : t -> Mat.t * int array * float
(** The packed [L\U] factors (shared, not copied), the row permutation
    and its sign — the factorization's raw state, for tests that check
    kernels bitwise. *)

val solve : t -> Vec.t -> Vec.t
(** [solve lu b] returns [x] with [a x = b]. *)

val solve_into : t -> Vec.t -> Vec.t -> unit
(** [solve_into lu b x] stores the solution in [x]; [b] is left intact.
    [b] and [x] may be the same array. *)

val solve_many_into : t -> ?off:int -> cols:int -> Vec.t -> Vec.t -> unit
(** [solve_many_into lu ~off ~cols b x] applies one factor to a
    contiguous panel of right-hand-side columns: column [c] of the
    panel lives at offset [(off + c) * n] of [b] and the solutions land
    at the same offsets of [x] ([off] defaults to 0). The permutation
    is applied once over the whole panel, then the forward/backward
    substitutions run fused and cache-blocked over the columns. Each
    column's arithmetic is performed in exactly the order of
    {!solve_into}, so the results are bitwise identical to [cols]
    single-column solves. [b] and [x] must not alias. Counts one
    [lu.dense_solves] telemetry tick per call and [cols] ticks of
    [lu.dense_solve_columns]. *)

val solve_transposed : t -> Vec.t -> Vec.t
(** [solve_transposed lu b] returns [x] with [aᵀ x = b]. *)

val solve_dense : Mat.t -> Vec.t -> Vec.t
(** One-shot convenience: factor then solve. *)
