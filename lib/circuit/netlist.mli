(** Netlist builder: interns symbolic node names and accumulates
    devices. The ground node is ["0"] (or ["gnd"], an alias). *)

type t

val create : unit -> t

val devices : t -> Device.t list
(** In insertion order. *)

val num_nodes : t -> int
(** Number of non-ground nodes created so far. *)

val node_name : t -> Device.node -> string

val find_node : t -> string -> Device.node option

val digest : t -> string
(** Structural hash (FNV-1a 64, hex) over each device's kind, name,
    node indices and element values, in insertion order. Source
    waveforms are left out, so the points of a tone sweep over one
    circuit share a digest: their MNA systems have the same unknowns,
    and a converged solution of one is a Newton start for another. A
    circuit that sizes an element from the tones (the envelope
    detector's load capacitor) gets a digest per tone pair. *)

(** {1 Convenience builders} — each interns its node names and adds the
    device, returning [()] so netlists read like SPICE decks. *)

val resistor : t -> string -> string -> string -> float -> unit

val capacitor : t -> string -> string -> string -> float -> unit

val inductor : t -> string -> string -> string -> float -> unit

val vsource : t -> string -> string -> string -> Waveform.t -> unit

val isource : t -> string -> string -> string -> Waveform.t -> unit

val diode : t -> string -> string -> string -> Diode.params -> unit

val mosfet : t -> string -> drain:string -> gate:string -> source:string -> Mosfet.params -> unit

val bjt : t -> string -> collector:string -> base:string -> emitter:string -> Bjt.params -> unit

val vccs : t -> string -> out_plus:string -> out_minus:string -> in_plus:string -> in_minus:string -> float -> unit

val multiplier :
  t ->
  string ->
  out_plus:string ->
  out_minus:string ->
  a_plus:string ->
  a_minus:string ->
  b_plus:string ->
  b_minus:string ->
  float ->
  unit
