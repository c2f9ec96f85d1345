(** Windowed periodogram and band-power utilities for inspecting the
    spectra of simulated waveforms. *)

type t = {
  freqs : float array;  (** bin centres, [0 .. fs/2] *)
  power : float array;  (** one-sided power spectral estimate (V²) *)
}

val periodogram : ?window:[ `Rect | `Hann ] -> sample_rate:float -> float array -> t
(** One-sided windowed periodogram (default Hann), coherent-gain
    corrected so a full-scale sine reads its squared RMS amplitude. *)

val band_power : t -> f_lo:float -> f_hi:float -> float
(** Sum of bin powers within [[f_lo, f_hi]]. *)
