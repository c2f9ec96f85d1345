(** Communication-link metrics on baseband waveforms: the eye-diagram /
    inter-symbol-interference and adjacent-channel figures the paper
    names as the method's target applications (“well-suited
    for estimating effects such as ISI and ACI”). *)

type eye = {
  opening : float;  (** worst-case vertical separation at the sample instant *)
  level_one : float;  (** mean sampled value over ‘1’ symbols *)
  level_zero : float;  (** mean sampled value over ‘0’ symbols *)
  isi_rms : float;  (** RMS deviation of sampled values from their symbol mean *)
}

val eye_metrics :
  samples_per_symbol:int -> bits:bool array -> ?sample_phase:float -> float array -> eye
(** Slice a baseband waveform into symbols (the waveform must cover
    [Array.length bits] symbols), sample each at [sample_phase]
    (fraction of a symbol, default 0.5) and report eye statistics.
    @raise Invalid_argument if the waveform is shorter than
    [samples_per_symbol * nbits]. *)

val adjacent_channel_power_ratio :
  Spectrum.t -> f_centre:float -> bandwidth:float -> spacing:float -> float
(** ACPR in dB: power in the adjacent channel (centred [spacing] away)
    over power in the main channel, both of width [bandwidth]. *)
