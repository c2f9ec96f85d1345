(** Difference-frequency time scales (paper §2).

    A shear is defined by the fast fundamental [f1] (the [t1] scale,
    period [T1 = 1/f1]) and the slow fundamental [fs] (the [t2]
    difference-frequency scale, period [Td = 1/fs]). Every frequency
    appearing in the circuit's excitation must lie on the lattice

      [f = m·f1 + k·fs],  [m, k] integers,

    and its sheared multi-time phase is [m·f1·t1 + k·fs·t2]
    (generalizing paper eqs. (11) and (13): eq. (11) is [m = 1, k = 1]
    with [fs = fd = f1 − f2]; eq. (13) is [m = 2, k = 1] with
    [fd = 2f1 − f2]). On the diagonal [t1 = t2 = t] the phase reduces
    to [f·t], so the defining property [b(t) = b̂(t, t)] holds by
    construction. *)

type t

exception Off_lattice of float
(** A source frequency that cannot be written as [m·f1 + k·fs]. *)

val make : fast_freq:float -> slow_freq:float -> t
(** @raise Invalid_argument unless [0 < slow_freq < fast_freq]. *)

val fast_freq : t -> float

val slow_freq : t -> float

val t1_period : t -> float

val t2_period : t -> float

val phase : t -> t1:float -> t2:float -> float -> float
(** Sheared multi-time phase [m·f1·t1 + k·fs·t2] of frequency [f] at
    [(t1, t2)] — pass as [phase_of] to {!Circuit.Waveform.eval_with}, or
    as a phase to {!Circuit.Mna.sources_into}. [m] is the nearest integer to [f/f1]
    (so slow offsets must stay below [f1/2]) and [f = m·f1 + k·fs] must
    hold to relative tolerance [1e-6].
    @raise Off_lattice for frequencies off the lattice. *)

val scales : t -> float array -> float array * float array
(** [scales s freqs] is each frequency's [(m·f1, k·fs)], [nan] in both
    for a frequency off the lattice: [fast.(i)·t1 + slow.(i)·t2] is
    [phase s ~t1 ~t2 freqs.(i)], bit for bit. *)

val phase_unsheared : t -> t1:float -> t2:float -> float -> float
(** The *unsheared* two-tone assignment of paper eq. (9)/Figure 1:
    frequencies at (multiples of) the fast fundamental evolve along
    [t1] and everything else along [t2]. Provided for the Fig. 1 / 2
    comparison; not useful for difference-frequency extraction. *)

val validate_sources : t -> Circuit.Mna.t -> (unit, float) Stdlib.result
(** Check every source frequency of the circuit against the lattice;
    [Error f] carries the first offending frequency. *)
