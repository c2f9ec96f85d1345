(** Unboxed float kernels on {!Vec.t} ([float array]) vectors.

    The allocation-free inner loops of Newton, the Krylov layer and the
    MPDE matrix-free operator run on these: bounds checks are hoisted
    to one dimension test per call and the element loops use unchecked
    accesses. Every sum runs left to right in plain sequential order,
    so each result is bitwise that of the plain one-element loop.
    Mismatched lengths raise [Invalid_argument]. *)

val create : int -> float array
(** Zero-filled vector of the given length. Kept for the benchmark's
    SpMV probe only; it goes when ROADMAP item 15 lands. *)

val of_array : float array -> float array
(** A copy of the array. Kept for the benchmark's SpMV probe only; it
    goes when ROADMAP item 15 lands. *)

val dot : float array -> float array -> float

val nrm2 : float array -> float
(** Euclidean norm, [sqrt (dot x x)]. *)

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] computes [y <- y + a*x], two elements per
    iteration. *)

val axpy_dot : float -> float array -> float array -> float array -> float
(** [axpy_dot a x y z] computes [y <- y + a*x] and returns [dot z y] of
    the updated [y], in one pass: bitwise [axpy a x y] followed by
    [dot z y], also when [z] is [y]. Each updated element is kept in a
    register for its product rather than reloaded after the store, two
    elements per iteration, with the sum still taken left to right. *)

val scale_into : float -> float array -> float array -> unit
(** [scale_into a x y] computes [y <- a*x], two elements per
    iteration. *)

val sub_into : float array -> float array -> float array -> unit
(** [sub_into a b y] computes [y <- a - b]. *)

val add_ip : float array -> float array -> unit
(** [add_ip x y] computes [x <- x + y]. *)

val spmv :
  rows:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  float array ->
  float array ->
  unit
(** CSR sparse matrix-vector product [y <- A x] from raw index/value
    arrays; column indices are validated once, then the row loops run
    unchecked, each row summed from [0.] in CSR order. The one SpMV:
    [Sparse.Csr.mul_vec_into] runs it. *)
