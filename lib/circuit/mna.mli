(** Modified nodal analysis: assembles a {!Numeric.Dae.t} in the
    charge/conduction form [d/dt q(x) + f(x) = b(t)] (paper eq. (1))
    from a {!Netlist.t}.

    Unknowns are the non-ground node voltages (indices
    [0 .. num_nodes−1], node [k]'s voltage at index [k−1]) followed by
    one branch current per voltage source and inductor. *)

type t

val build : ?gmin:float -> Netlist.t -> t
(** [gmin] (default [1e-12]) adds a conductance from every non-ground
    node to ground, in both the residual and the Jacobian (a consistent
    model modification, as in SPICE). *)

val size : t -> int

val netlist : t -> Netlist.t
(** The netlist this system was assembled from. *)

val num_nodes : t -> int

val dae : t -> Numeric.Dae.t

val sources_into :
  t -> freqs:float array -> phases:float array -> Linalg.Vec.t -> int -> unit
(** [sources_into m ~freqs ~phases out off] writes into
    [out.(off) .. out.(off + size − 1)] the excitation vector with each
    waveform factor of frequency [freqs.(i)] evaluated at phase
    [phases.(i)] (see {!Waveform.eval_phases_into}), allocating
    nothing: the multi-time hook, one MPDE grid point at its sheared
    phases. With [phases.(i) = freqs.(i) *. t] it is [dae]'s
    [source_into t], bit for bit. *)

val linear : t -> bool
(** No device evaluates a model (resistors, capacitors, inductors,
    sources and VCCSs only): [f] and [q] are linear in the unknowns, so
    Newton solves any discretization of the system in one step. *)

val source_frequencies : t -> float list
(** Distinct frequencies appearing in any source waveform. *)

val unknown_names : t -> string array
(** Human-readable unknown labels: node names then ["i(<device>)"]. *)

val node_index : t -> string -> int
(** Index into the unknown vector of the named node's voltage.
    @raise Not_found for ground or unknown names. *)

val branch_index : t -> string -> int
(** Index of the named device's branch current. @raise Not_found. *)

val voltage : t -> Linalg.Vec.t -> string -> float
(** [voltage m x "n"] reads node [n]'s voltage from a solution vector
    (ground reads as [0.]). *)

val differential_voltage : t -> Linalg.Vec.t -> string -> string -> float
