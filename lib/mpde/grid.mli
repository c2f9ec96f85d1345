(** The bi-periodic multi-time grid: [n1] points along the fast scale
    [t1 ∈ [0, T1)] and [n2] points along the difference-frequency scale
    [t2 ∈ [0, Td)] (paper used 40 x 30). Grid point [(i, j)] carries the
    full circuit unknown vector; the flattened ordering is [j] outer,
    [i] inner, which makes the backward-difference Jacobian block
    lower-triangular apart from the two periodic wrap couplings. *)

type t = {
  n1 : int;
  n2 : int;
  shear : Shear.t;
  h1 : float;  (** [T1 / n1] *)
  h2 : float;  (** [Td / n2] *)
}

val make : shear:Shear.t -> n1:int -> n2:int -> t
(** @raise Invalid_argument unless both dimensions are at least 2. *)

val points : t -> int
(** [n1 * n2]. *)

val t1_of : t -> int -> float
(** Fast-scale coordinate of column [i]. *)

val t2_of : t -> int -> float

val point_index : t -> int -> int -> int
(** [point_index g i j = j*n1 + i] with periodic wrapping of both
    indices. *)

val prolong : size:int -> t -> Linalg.Vec.t -> t -> Linalg.Vec.t
(** [prolong ~size coarse x fine] carries the flattened surface [x]
    ([size] unknowns per point of [coarse]) onto [fine] over the same
    periods: every unknown is interpolated by
    {!Numeric.Interp.bilinear_periodic} at the fine points'
    fractional coordinates [(i/n1, j/n2)]. Exact for a constant surface,
    and for a bilinear one at the fine points outside the wrap-around
    cells. The grids need not nest: 7 points go onto 15 as well as
    onto 14. *)
