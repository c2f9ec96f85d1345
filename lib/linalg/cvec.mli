(** Dense complex vectors ([Complex.t array]) used by the harmonic-balance
    solver and FFT post-processing. *)

type t = Complex.t array

val create : int -> t
(** Zero vector. *)

val init : int -> (int -> Complex.t) -> t

val of_real : Vec.t -> t

val real : t -> Vec.t

val imag : t -> Vec.t

val add : t -> t -> t

val dot : t -> t -> Complex.t
(** Conjugate-linear in the first argument: [Σ conj(x_i) * y_i]. *)

val norm2 : t -> float

val norm_inf : t -> float
