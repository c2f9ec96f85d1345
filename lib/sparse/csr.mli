(** Immutable compressed-sparse-row matrices.

    Column indices within a row are sorted and unique. Built from a
    {!Coo.t} builder (duplicates summed) or from dense matrices. *)

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_idx : int array;  (** length [nnz], sorted within each row *)
  values : float array;  (** length [nnz] *)
}

val of_coo : Coo.t -> t
(** Sums duplicate triplets; drops entries that cancel to exactly [0.]
    only if they were never inserted (explicit zeros from summation are
    kept so patterns remain stable across Newton iterations). *)

val nnz : t -> int

val get : t -> int -> int -> float
(** [get m i j] is the stored entry or [0.]; binary search within row. *)

val slot : t -> int -> int -> int
(** [slot m i j] is the position of entry [(i, j)] in [m.values], or
    [-1] when the pattern has none; binary search within row [i]
    ([0 <= i < rows]). *)

val mul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t

val mul_vec_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

val mul_vec_ba_into : t -> Linalg.Kernel.vec -> Linalg.Kernel.vec -> unit
(** [mul_vec_ba_into m x y] computes [y <- m x] on Bigarray vectors via
    the unchecked {!Linalg.Kernel.spmv} hot loop; accumulation order
    (and hence every bit of the result) matches {!mul_vec_into}. *)

val tmul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Transposed product [mᵀ x]. *)

val transpose_map : t -> int array * int array * int array
(** [(row_ptr, col_idx, src)] of the transpose of [m], whose entry [p] is
    [m.values.(src.(p))]: a column view of [m] that stays valid while
    [m]'s pattern does, whatever its values. *)

val diag : t -> Linalg.Vec.t
(** Main diagonal (zeros where absent). *)

val scale : float -> t -> t

val add : t -> t -> t
(** Entry-wise sum; patterns are merged. *)

val identity : int -> t

val iter_row : t -> int -> (int -> float -> unit) -> unit
