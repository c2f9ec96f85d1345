(** Dense real vectors backed by [float array].

    All operations are total on matching lengths; mismatched lengths raise
    [Invalid_argument]. Functions suffixed [_ip] mutate their first
    argument in place. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val init : int -> (int -> float) -> t

val dim : t -> int

val of_list : float list -> t

val map : (float -> float) -> t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y := a*x + y] in place. *)

val axpby : float -> t -> float -> t -> t
(** [axpby a x b y] is the fresh vector [a*x + b*y]. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val norm1 : t -> float

val dist2 : t -> t -> float
(** [dist2 x y] is [norm2 (sub x y)] without allocating. *)

val scale_ip : float -> t -> unit

val add_ip : t -> t -> unit
(** [add_ip x y] performs [x := x + y]. *)

val sub_ip : t -> t -> unit
(** [sub_ip x y] performs [x := x - y]. *)

val neg : t -> t

val max_abs_index : t -> int
(** Index of the entry of largest magnitude; raises [Invalid_argument] on
    the empty vector. *)

val mean : t -> float
