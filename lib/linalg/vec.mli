(** Dense real vectors backed by [float array], the one vector type of
    the solvers.

    All operations are total on matching lengths; mismatched lengths raise
    [Invalid_argument]. The inner products, norms and in-place updates
    ([dot], [nrm2], [axpy], [add_ip], ...) are {!Kernel}'s. *)

type t = float array

val dim : t -> int

val sub : t -> t -> t

val scale : float -> t -> t

val norm_inf : t -> float

val neg : t -> t

val mean : t -> float

val same_bits : t -> t -> bool
(** [same_bits a b] holds when the two vectors hold the same floats bit
    for bit: the key on which the solvers' caches of a point's
    evaluation match. @raise Invalid_argument on different lengths. *)
