(** Classification of Newton residual trajectories.

    Given the per-iteration residual-norm history of a solve (and
    optionally the ladder strategy that produced it), decide whether
    convergence was quadratic (healthy Newton in its basin), linear with
    an estimated contraction rate (inexact Jacobian, strong damping, or
    a barely-attracting fixed point), stagnating, or diverging — or
    whether the solve only succeeded because the escalation ladder
    rescued it.

    Thresholds (documented in DESIGN.md §10):
    - divergence: median step ratio [>= 1.5], or the final residual
      exceeds 10x the initial one;
    - stagnation: median step ratio [>= 0.97] (less than 3% reduction
      per iteration);
    - quadratic: median observed convergence order
      [q_i = log(r_{i+1}/r_i) / log(r_i/r_{i-1})] over the decreasing
      tail is [>= 1.6];
    - otherwise linear, with rate = geometric mean of the decreasing
      step ratios. *)

type cls =
  | Quadratic
  | Linear of float  (** estimated contraction rate per iteration, in (0, 1) *)
  | Stagnating
  | Diverging
  | Rescued of string  (** a non-primary ladder stage produced the solution *)
  | Insufficient_data  (** fewer than 3 usable residual samples *)

val classify : ?strategy:string -> float array -> cls
(** [classify history] with [history] the chronological residual norms
    (initial residual first). [strategy], when given and different from
    ["newton"], short-circuits to [Rescued strategy] — the trajectory
    then spans several distinct subproblems and a rate estimate would
    be meaningless. Non-finite and non-positive samples are dropped
    before analysis. *)

val to_string : cls -> string
(** Compact rendering, e.g. ["quadratic"], ["linear(rate=0.31)"]. *)
