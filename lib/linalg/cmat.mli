(** Dense complex matrices (row-major) with an LU solver, used for
    harmonic-balance spectral Jacobians. *)

type t = { rows : int; cols : int; data : Complex.t array }

val create : int -> int -> t

val add_entry : t -> int -> int -> Complex.t -> unit

exception Singular of int

val lu_solve : t -> Cvec.t -> Cvec.t
(** In-place-copy LU with partial pivoting; solves [a x = b].
    @raise Singular on a numerically singular pivot. *)
