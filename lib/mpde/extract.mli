(** Post-processing of MPDE solutions: multi-time surfaces (Figs. 3, 5),
    baseband envelopes along the difference-frequency scale (Fig. 4),
    one-time waveform reconstruction along the diagonal (Fig. 6), and
    conversion gain / distortion figures. *)

val surface_of_node : Solver.solution -> Circuit.Mna.t -> string -> float array array

val differential_surface :
  Solver.solution -> Circuit.Mna.t -> string -> string -> float array array

type envelope_mode =
  | At_t1 of float  (** sample at fixed fast-scale fraction [∈ [0,1)] *)
  | Mean_t1  (** average over the fast scale (baseband component) *)
  | Peak_t1  (** max over the fast scale (envelope detector view) *)

val envelope : ?mode:envelope_mode -> Solver.solution -> values:float array array -> float array
(** Length-[n2] baseband waveform along [t2] (default [Mean_t1]). *)

val envelope_times : Solver.solution -> float array
(** The [t2] sample instants matching {!envelope}. *)

val diagonal :
  Solver.solution ->
  values:float array array ->
  t_start:float ->
  t_stop:float ->
  samples:int ->
  float array * float array
(** One-time reconstruction [x(t) = x̂(t mod T1, t mod Td)] by periodic
    bilinear interpolation (paper Fig. 6); returns [(times, values)]. *)

val diagonal_residual :
  ?periods:int -> ?steps_per_period:int -> Solver.solution -> unknown:int -> float
(** Diagonal-consistency check: integrate a reference one-time transient
    from the surface's corner state [x̂(0,0)] over [periods] fast periods
    (default 2) with [steps_per_period] trapezoidal steps (default 128)
    of {!Numeric.Integrator.transient} on the system's DAE along the
    diagonal, [b(t) = b̂(t, t)], and return the maximum deviation of the
    interpolated diagonal [x̂(t,t)] from it, relative to the reference
    swing. The value is dominated by the first-order [Backward]
    discretization error along [t1] and halves per doubling of [n1]:
    on the 40x30 grid ([rfss health]) it reads 2.2 % (rc), 1.3 %
    (unbalanced-mixer), 6.4 % (detector), 14 % (ideal-mixer), 27 %
    (balanced-mixer) and 31 % (rectifier); at [n1 = 80], 1.1 % (rc),
    3.3 % (detector) and 14 % (balanced-mixer). [nan] when the
    reference integration fails to converge. *)

val t2_harmonic_amplitude : values:float array array -> harmonic:int -> float
(** Amplitude of the given harmonic of the difference frequency in the
    [Mean_t1] baseband waveform. *)

val conversion_gain_db :
  values:float array array -> rf_amplitude:float -> harmonic:int -> float
(** [20·log10 (baseband harmonic amplitude / RF drive amplitude)] —
    the paper's down-conversion gain figure. *)

val thd : values:float array array -> ?max_harmonic:int -> unit -> float
(** Total harmonic distortion of the [Mean_t1] {!envelope}:
    {!Numeric.Fft.thd} over its harmonics, so
    [sqrt(Σ_{k≥2} A_k²) / A_1] (default [max_harmonic] = [n2/2]), and
    [infinity] when [A_1] is at the roundoff floor. *)

type mixing_product = {
  k1 : int;  (** harmonic of the fast fundamental, [0 .. n1/2] *)
  k2 : int;  (** harmonic of the difference frequency, [−n2/2 .. n2/2] *)
  amplitude : float;
  frequency : float;  (** the one-time frequency [k1·f1 + k2·fd] *)
}

val mixing_spectrum :
  Solver.solution -> values:float array array -> ?top:int -> unit -> mixing_product list
(** 2-D Fourier analysis of a multi-time surface: every mixing product
    [k1·f1 + k2·fd] present in the solution, sorted by amplitude
    (largest first, at most [top] entries, default 12; the DC term is
    included as [(0, 0)]). This is the map of sum/difference tones the
    paper's §1 describes HB as expanding in — recovered here from the
    purely time-domain solution. *)
