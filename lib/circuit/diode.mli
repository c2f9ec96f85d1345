(** Shockley diode model with exponential overflow protection and a
    parallel minimum conductance for Newton robustness. *)

type params = {
  saturation_current : float;  (** Is, amperes *)
  ideality : float;  (** emission coefficient n *)
  junction_cap : float;  (** fixed small-signal capacitance, farads *)
  gmin : float;  (** parallel leakage conductance *)
}

val default : params
(** Is = 1e-14 A, n = 1, cj = 0, gmin = 1e-12. *)

val thermal_voltage : float
(** kT/q at 300 K. *)

(** {2 Evaluation in a caller-owned buffer}

    As {!Mosfet.evaluate_into}: the model reads the junction voltage
    from one slot of a float array the caller owns and writes the
    current, the conductance and the charge into three others,
    computing the exponential once for the first two. A call allocates
    nothing. *)

val v_slot : int
(** Input: anode-to-cathode junction voltage [v]. *)

val current_slot : int
(** Output: the anode-to-cathode current. Above the critical voltage
    the exponential is continued linearly (first-order Taylor) so
    Newton never overflows. *)

val conductance_slot : int
(** Output: d(current)/dv, consistent with the linear continuation. *)

val charge_slot : int
(** Output: the junction charge [junction_cap · v]. *)

val buffer_size : int

val evaluate_into : params -> float array -> unit
