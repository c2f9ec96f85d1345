(** Small-signal AC analysis: linearize the circuit at its DC operating
    point and solve [(G + jωC) X(ω) = B] over a frequency sweep, where
    [B] collects unit-amplitude phasors from the designated AC sources.
    Useful for verifying filter substrates (pole positions, resonances)
    against the large-signal steady-state methods. *)

type sweep = Linear of { f_start : float; f_stop : float; points : int }
           | Decade of { f_start : float; f_stop : float; points_per_decade : int }

type result = {
  freqs : float array;
  response : Linalg.Cvec.t array;  (** per frequency, full unknown vector *)
}

val analyze :
  ?x_op:Linalg.Vec.t ->
  ?ac_sources:string list ->
  Mna.t ->
  sweep ->
  result
(** [analyze mna sweep] computes the AC response. [x_op] defaults to a
    freshly computed DC operating point. [ac_sources] names the
    voltage/current sources that carry a unit AC amplitude (default:
    all independent sources). @raise Failure if the DC point cannot be
    found. *)

val node_response : Mna.t -> result -> string -> Complex.t array

val magnitude_db : Complex.t array -> float array

val phase_deg : Complex.t array -> float array
