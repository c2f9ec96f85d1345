(** Dense real matrices in row-major storage.

    A matrix is a record of row count, column count, and a flat
    [float array] of length [rows * cols]. *)

type t = { rows : int; cols : int; data : float array }

val create : int -> int -> t
(** [create r c] is the [r] x [c] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Rows given as arrays; raises [Invalid_argument] on ragged input. *)

val copy : t -> t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val dims : t -> int * int

val sub : t -> t -> t

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** Transposed matrix-vector product [aᵀ x]. *)
