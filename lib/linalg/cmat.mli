(** Dense complex matrices (row-major) with an LU solver, used for
    harmonic-balance spectral Jacobians. *)

type t = { rows : int; cols : int; data : Complex.t array }

val create : int -> int -> t

val init : int -> int -> (int -> int -> Complex.t) -> t

val add_entry : t -> int -> int -> Complex.t -> unit

val mul_vec : t -> Cvec.t -> Cvec.t

exception Singular of int

val lu_solve : t -> Cvec.t -> Cvec.t
(** In-place-copy LU with partial pivoting; solves [a x = b].
    @raise Singular on a numerically singular pivot. *)
