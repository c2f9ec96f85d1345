(** Level-1 (Shichman–Hodges) MOSFET with channel-length modulation and
    fixed gate capacitances; bulk is tied to the source internally.
    Handles both operation quadrants by drain/source symmetry, the
    behaviour the paper's switching mixers rely on. *)

type polarity = Nmos | Pmos

type params = {
  polarity : polarity;
  vt0 : float;  (** threshold voltage (positive for NMOS) *)
  kp : float;  (** transconductance [k' · W/L], A/V² *)
  lambda : float;  (** channel-length modulation, 1/V *)
  cgs : float;  (** fixed gate-source capacitance, F *)
  cgd : float;  (** fixed gate-drain capacitance, F *)
  gds_min : float;  (** minimum drain-source conductance *)
}

val default_nmos : params
val default_pmos : params

(** {2 Evaluation in a caller-owned buffer}

    The model reads its terminal voltages from slots of a float array
    the caller owns and writes its current and conductances into other
    slots of the same array, so an evaluation allocates nothing: a
    returned record, or a float argument passed across a module
    boundary, would be boxed on the heap.

    Buffer contract: the caller owns [buf] (length at least
    {!buffer_size}) and must not evaluate into it from two domains at
    once. A call reads only the two input slots and writes every output
    slot, so a buffer needs no reset between calls. In the program the
    single owner is {!Mna}: it keeps one model buffer per domain (a
    [Domain.DLS] key), shared by every MOSFET and BJT evaluation on
    that domain. *)

val vgs_slot : int
(** Input: gate-source voltage. *)

val vds_slot : int
(** Input: drain-source voltage. *)

val ids_slot : int
(** Output: drain current (into the drain). *)

val gm_slot : int
(** Output: [∂ids/∂vgs]. *)

val gds_slot : int
(** Output: [∂ids/∂vds]. *)

val buffer_size : int

val evaluate_into : params -> float array -> unit
(** [evaluate_into p buf]: large-signal evaluation with consistent
    derivatives at the voltages in [buf]'s input slots; for [vds < 0]
    (NMOS) the device is evaluated with drain and source exchanged and
    the appropriate chain rule applied. *)

type operating_point = {
  ids : float;
  gm : float;
  gds : float;
  region : [ `Cutoff | `Triode | `Saturation ];
}

val evaluate : params -> vgs:float -> vds:float -> operating_point
(** {!evaluate_into} on a fresh buffer, read back as a record (for
    tests and one-off probes). *)
