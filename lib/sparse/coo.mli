(** Mutable coordinate-format (triplet) sparse-matrix builder.

    Duplicate entries are summed when the matrix is converted to CSR.
    This is the stamping target for circuit MNA assembly. *)

type t

val create : ?capacity:int -> int -> int -> t
(** [create rows cols] is an empty builder. *)

val rows : t -> int

val cols : t -> int

val add : t -> int -> int -> float -> unit
(** [add m i j v] appends triplet [(i, j, v)]. Zero values are skipped.
    @raise Invalid_argument when the index is out of range. *)

val iter : (int -> int -> float -> unit) -> t -> unit

val of_triplets : int -> int -> (int * int * float) list -> t
