(** Periodic interpolation: linear on one period of uniform samples,
    and bilinear on the multi-time grid. *)

val linear_periodic : float array -> float -> float
(** Samples at [k/n] over one period; [u] is taken modulo 1. *)

val bilinear_periodic : float array array -> float -> float -> float
(** [bilinear_periodic grid u v] interpolates [grid.(i).(j)] with [i]
    placed at [i/n1] (coordinate [u]) and [j] at [j/n2] (coordinate [v]),
    both periodic. *)

val resample_periodic : float array -> int -> float array
(** [resample_periodic samples m] returns [m] linear-interpolated samples
    over the same period. *)
