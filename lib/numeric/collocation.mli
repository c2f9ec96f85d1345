(** One periodic collocation problem: the states at [N] points over one
    period of a {!Dae.t}, stacked into a single Newton unknown (paper
    §3, “time-discretization across one period”). The time-derivative
    operator is the only choice that varies: backward differences give
    periodic finite differences (and the MPDE's fast column), a dense
    spectral matrix gives pseudo-spectral harmonic balance, and the 2-D
    MPDE grid walks the tensor product of one operator per axis.

    At point [k] the residual is

    [(Σ_l w_kl·q(x_l))/s + f(x_k) − b(t_k)]

    and the Jacobian, whose block [(k, l)] is [(w_kl/s)·C(x_l)] plus
    [G(x_k)] when [l = k], is assembled as triplets, compressed and
    solved with the general sparse LU. The triplets skip exact zeros,
    so the stacked matrix does not depend on the per-point patterns. *)

type operator = private { weights : (int * float) array array; scale : float }
(** Sparse weights [w_kl], row [k] in summation order, and a scale [s],
    so that [(Σ_l w_kl·q_l)/s] approximates [dq/dt] at point [k]. *)

val backward_difference : points:int -> h:float -> operator
(** Periodic backward difference: [w = {k: 1, k−1: −1}], [s = h]. *)

val central_difference : points:int -> h:float -> operator
(** Periodic central difference: [w = {k+1: 1, k−1: −1}], [s = 2h]. *)

val of_matrix : Linalg.Mat.t -> operator
(** The nonzeros of a dense square differentiation matrix [D], with
    [s = 1]. *)

val diagonal : operator -> float array
(** The diagonal: per point [k], [Σ w_kk/s] summed from [0.0]. *)

val lower_triangular : operator -> bool
(** Lower-triangular up to the periodic wrap, so it can be marched point
    by point: every row has its diagonal entry, and every entry above it
    is nearer behind across the wrap than ahead. *)

val problem :
  ?anchor:float * Linalg.Vec.t array ->
  Dae.t ->
  operator ->
  times:float array ->
  Newton.problem
(** The stacked Newton problem with [b_k] the DAE's source at
    [times.(k)], one time per operator point. [q], [f] and [b] are
    written by the DAE's callbacks into buffers the problem owns, so
    one problem serves one Newton run at a time. The residual loads q,
    f, G and C at every point in one device pass ({!Stacked}), and the
    solve at that iterate stacks those G and C.
    [anchor = (h, prev)] adds one backward-Euler step in a second time,
    [(q(x_k) − q(prev_k))/h], to every point (envelope following);
    [q(prev_k)] is evaluated once, here. *)

val replicate : int -> Linalg.Vec.t -> Linalg.Vec.t
(** [replicate points x] stacks [points] copies of [x]: the usual seed. *)

val states : int -> Linalg.Vec.t -> Linalg.Vec.t array
(** [states size big] splits a stacked unknown back into its points. *)
