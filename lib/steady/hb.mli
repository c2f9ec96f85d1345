(** Single-tone harmonic balance in pseudo-spectral (time-collocation)
    form: states at [N = 2K+1] uniform points over one period are the
    unknowns and the charge derivative is applied through the exact
    trigonometric spectral differentiation matrix, which is
    algebraically equivalent to classical frequency-domain HB with [K]
    harmonics (paper refs. [3, 4]).

    HB is the method the paper argues is ill-suited to sharp switching
    waveforms — the [abl_hb_vs_sharpness] bench quantifies that: the
    harmonic count needed for a given accuracy grows steeply as edges
    sharpen, while the time-domain methods are insensitive.

    The solve is {!Solution.collocate} with the operator
    {!Numeric.Collocation.of_matrix} of {!Numeric.Spectral.diff_matrix}:
    the same collocation kernel as {!Periodic_fd}, with a spectral
    instead of a backward-difference [D]. The result is a {!Solution.t}
    whose [trace] holds the [2K+1] collocation times and states. *)

val solve :
  ?max_newton:int ->
  ?tol:float ->
  ?budget:Resilience.Budget.t ->
  ?x_init:Linalg.Vec.t ->
  dae:Numeric.Dae.t ->
  period:float ->
  harmonics:int ->
  unit ->
  Solution.t
(** [budget] is ticked once per collocation Newton iteration; on
    exhaustion the best iterate is returned with
    [outcome = Exhausted _]. *)
