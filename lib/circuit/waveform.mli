(** Source waveforms with both one-time and multi-time evaluation.

    A waveform is a DC offset plus a sum of terms; each term is a gain
    times a *product* of periodic factors, each factor being a
    normalized period-1 shape driven at its own frequency. This
    product-of-periodic-factors form is exactly what the MPDE needs: the
    multi-time (sheared) evaluation of paper eqs. (11)–(14) is obtained
    by substituting each factor's phase [f·t] with the sheared phase
    supplied by the caller (see {!eval_with}).

    Example: the paper's information-carrying tone (eq. (14)) — a
    bit-stream-modulated carrier — is one term with two factors: a
    cosine at the carrier frequency and an NRZ bit shape at the pattern
    repetition frequency. *)

type periodic =
  | Sin of { phase : float }  (** [sin (2π (θ + phase))] *)
  | Cos of { phase : float }
  | Trapezoid of {
      low : float;
      high : float;
      delay_frac : float;
      rise_frac : float;
      high_frac : float;
      fall_frac : float;
    }  (** SPICE-PULSE-like shape over one normalized period *)
  | Bits of { bits : bool array; low : float; high : float; transition_frac : float }
      (** NRZ symbol stream; one period spans the whole pattern;
          transitions are smoothed with a raised-cosine ramp over
          [transition_frac] of a symbol *)
  | Sampled of float array  (** arbitrary periodic shape, linear interpolation *)

type factor = { shape : periodic; freq : float }

type term = { gain : float; factors : factor list }

type t = { dc : float; terms : term list }

val eval : t -> float -> float
(** One-time evaluation [w(t)]. *)

val eval_into : t -> float -> float array -> int -> unit
(** [eval_into w t out k] writes [eval w t] into [out.(k)], allocating
    nothing: the per-step source evaluation of the integrators. *)

val eval_with : phase_of:(float -> float) -> t -> float
(** [eval_with ~phase_of w] evaluates each factor's shape at
    [phase_of freq] instead of [freq *. t]. This is the hook through
    which the MPDE shear substitutes difference-frequency time scales. *)

val eval_phases_into :
  t -> freqs:float array -> phases:float array -> float array -> int -> unit
(** [eval_phases_into w ~freqs ~phases out k] writes into [out.(k)]
    the floats of [eval_with ~phase_of w] for [phase_of freqs.(i) =
    phases.(i)] (the first [i] that lists the frequency), allocating
    nothing: the MPDE's per-point sources at their sheared phases.
    @raise Invalid_argument when a factor's frequency is not listed. *)

val frequencies : t -> float list
(** All distinct factor frequencies (unsorted, duplicates removed). *)

(** {1 Constructors} *)

val dc : float -> t

val sine : ?offset:float -> ?phase:float -> amplitude:float -> freq:float -> unit -> t

val cosine : ?offset:float -> ?phase:float -> amplitude:float -> freq:float -> unit -> t

val pulse :
  ?delay_frac:float ->
  ?rise_frac:float ->
  ?fall_frac:float ->
  low:float ->
  high:float ->
  duty:float ->
  freq:float ->
  unit ->
  t

val modulated_carrier :
  ?carrier_phase:float ->
  ?transition_frac:float ->
  ?low:float ->
  amplitude:float ->
  carrier_freq:float ->
  bits:bool array ->
  symbol_freq:float ->
  unit ->
  t
(** On-off-keyed carrier: [amplitude · cos(2π f_c t) · bits(t)] — the
    paper's eq. (14) drive ([low] defaults to 0, i.e. OOK; set
    [low = -1.] for BPSK-like antipodal modulation). *)

val sum : t -> t -> t

val scale : float -> t -> t
