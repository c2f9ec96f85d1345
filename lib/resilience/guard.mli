(** Guarded evaluation: non-finite detection and containment.

    Exponential device models overflow readily (a diode at a few volts
    of forward bias evaluates [exp] past 1e300); a single Inf or NaN
    that escapes a residual or Jacobian evaluation poisons the Givens
    QR inside GMRES and every iterate after it. [Guard] locates the
    first offending entry — and, for block-structured vectors such as
    the flattened MPDE grid, reports *which* block (grid point) and
    *which* unknown within it — so failures are attributable instead of
    silent. *)

type violation = {
  index : int;  (** flat index of the first non-finite entry *)
  value : float;  (** the offending value (NaN or ±Inf) *)
  block : int option;  (** [index / block_size] when a block size is known *)
  offset : int option;  (** [index mod block_size] *)
  context : string;  (** human label: what was being evaluated *)
}

exception Non_finite of violation

val finite : Linalg.Vec.t -> bool

val guarded :
  ?context:string ->
  ?block_size:int ->
  on_violation:(violation -> unit) ->
  (Linalg.Vec.t -> Linalg.Vec.t -> unit) ->
  Linalg.Vec.t ->
  Linalg.Vec.t ->
  unit
(** [guarded ~on_violation f x r] evaluates [f x r], which writes its
    result into [r]; if [r] then contains a non-finite entry the
    callback fires (once per evaluation) and [r] is left unmodified. The caller's Newton loop rejects
    the step via its non-finite residual-norm handling; the callback
    exists for attribution/logging. *)

val pp_violation : Format.formatter -> violation -> unit

val violation_to_string : violation -> string
