(** Dense real vectors backed by [float array].

    All operations are total on matching lengths; mismatched lengths raise
    [Invalid_argument]. Functions suffixed [_ip] mutate their first
    argument in place. *)

type t = float array

val dim : t -> int

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y := a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val add_ip : t -> t -> unit
(** [add_ip x y] performs [x := x + y]. *)

val neg : t -> t

val mean : t -> float
