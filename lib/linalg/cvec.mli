(** Dense complex vectors ([Complex.t array]) used by the harmonic-balance
    solver and FFT post-processing. *)

type t = Complex.t array

val init : int -> (int -> Complex.t) -> t

val of_real : Vec.t -> t
