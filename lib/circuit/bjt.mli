(** Bipolar junction transistor, Ebers–Moll transport model with
    overflow-protected junction exponentials and fixed junction
    capacitances. Extends the substrate beyond MOS switching circuits
    (e.g. classic diode-ring/BJT Gilbert mixers). *)

type polarity = Npn | Pnp

type params = {
  polarity : polarity;
  saturation_current : float;  (** transport saturation current Is *)
  beta_forward : float;
  beta_reverse : float;
  cbe : float;  (** fixed base-emitter capacitance *)
  cbc : float;
  gmin : float;  (** parallel conductance on each junction *)
}

val default_npn : params
val default_pnp : params

(** {2 Evaluation in a caller-owned buffer}

    As {!Mosfet.evaluate_into}: the model reads its junction voltages
    from slots of a float array the caller owns, writes its currents
    and conductances into other slots, and allocates nothing.

    Buffer contract: the caller owns [buf] (length at least
    {!buffer_size}) and must not evaluate into it from two domains at
    once. A call reads only the two input slots and writes every output
    slot. In the program the single owner is {!Mna}, which keeps one
    model buffer per domain (a [Domain.DLS] key). *)

val vbe_slot : int
(** Input: base-emitter voltage. *)

val vbc_slot : int
(** Input: base-collector voltage. *)

val ic_slot : int
(** Output: current into the collector. *)

val ib_slot : int
(** Output: current into the base. *)

val ie_slot : int
(** Output: current into the emitter ([−(ic+ib)]). *)

val d_ic_d_vbe_slot : int
(** Output: conductance [d ic / d vbe]; the three below follow the same
    naming, with the emitter as reference. *)

val d_ic_d_vbc_slot : int
val d_ib_d_vbe_slot : int
val d_ib_d_vbc_slot : int
val buffer_size : int

val evaluate_into : params -> float array -> unit
(** [evaluate_into p buf]: Ebers–Moll evaluation at the voltages in
    [buf]'s input slots. *)

type operating_point = {
  ic : float;
  ib : float;
  ie : float;
  d_ic_d_vbe : float;
  d_ic_d_vbc : float;
  d_ib_d_vbe : float;
  d_ib_d_vbc : float;
}

val evaluate : params -> vbe:float -> vbc:float -> operating_point
(** {!evaluate_into} on a fresh buffer, read back as a record (for
    tests and one-off probes). *)
