(** Unboxed Float64 kernels on Bigarray vectors.

    The allocation-free inner loops of the Krylov layer and the MPDE
    matrix-free operator run on these: bounds checks are hoisted to one
    dimension test per call and the element loops use unchecked
    accesses. [dot], [nrm2], [axpy] and [spmv] accumulate in the same
    sequential order as their {!Vec} / {!Sparse.Csr} [float array]
    counterparts, so results are bitwise identical. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> vec
(** Zero-filled vector of the given length. *)

val dim : vec -> int
val set : vec -> int -> float -> unit
val fill : vec -> float -> unit

val blit : vec -> vec -> unit
(** [blit src dst] copies [src] into [dst] (same length). *)

val of_array : float array -> vec
val to_array : vec -> float array

val blit_from_array : float array -> vec -> unit

val blit_to_array : vec -> float array -> unit
(** [blit_to_array v a] copies [v] into [a] (same length). *)

val dot : vec -> vec -> float
val nrm2 : vec -> float

val axpy : float -> vec -> vec -> unit
(** [axpy a x y] computes [y <- y + a*x], two elements per
    iteration. *)

val axpy_dot : float -> vec -> vec -> vec -> float
(** [axpy_dot a x y z] computes [y <- y + a*x] and returns [dot z y] of
    the updated [y], in one pass: bitwise [axpy a x y] followed by
    [dot z y], also when [z] is [y]. Each updated element is kept in a
    register for its product rather than reloaded after the store, two
    elements per iteration, with the sum still taken left to right. *)

val scale_into : float -> vec -> vec -> unit
(** [scale_into a x y] computes [y <- a*x], two elements per
    iteration. *)

val sub_into : vec -> vec -> vec -> unit
(** [sub_into a b y] computes [y <- a - b]. *)

val add_ip : vec -> vec -> unit
(** [add_ip x y] computes [x <- x + y]. *)

val spmv :
  rows:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  vec ->
  vec ->
  unit
(** CSR sparse matrix-vector product [y <- A x] from raw index/value
    arrays; column indices are validated once, then the row loops run
    unchecked. Accumulation order per row matches
    [Sparse.Csr.mul_vec_into]. *)
