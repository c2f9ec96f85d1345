(** What to solve, independent of how: a circuit, its two-tone
    excitation frequencies, and which fundamental the single-time
    engines should lock onto. One [Problem.t] can be handed to any of
    the five steady-state backends via [Engine.run], which is what
    makes the paper's method-vs-method comparisons (MPDE vs one-tone
    shooting across the frequency disparity) a data-driven sweep
    instead of hand-written glue. *)

type period_choice =
  | Fast_tone
      (** the single-time engines solve one fast (LO) period [1/f_fast] *)
  | Difference_tone
      (** the single-time engines integrate the whole difference period
          [1/fd] — the paper's §3 cost comparison, where shooting cost
          grows linearly with the disparity [f_fast/fd] *)

type t = {
  label : string;  (** job identifier in sweep outputs *)
  build : unit -> Circuits.built;
      (** fresh circuit per solve. The thunk must be pure/reentrant: a
          sweep invokes it concurrently from several domains, each
          worker building its own MNA system so no mutable state is
          shared across jobs. *)
  f_fast : float;  (** fast (LO) fundamental, Hz *)
  fd : float;  (** difference (slow) fundamental, Hz *)
  period : period_choice;
  output : string;  (** node whose waveform the result reports *)
  output_b : string option;  (** second node for differential outputs *)
}

val make :
  ?label:string ->
  ?period:period_choice ->
  ?output:string ->
  ?output_b:string ->
  f_fast:float ->
  fd:float ->
  (unit -> Circuits.built) ->
  t
(** Defaults: [label = "problem"], [period = Fast_tone],
    [output = "out"], no differential pair. *)

val engine_period : t -> float
(** The period a single-time engine solves: [1/f_fast] or [1/fd]
    according to [period]. *)

val digest : t -> string
(** {!Circuit.Netlist.digest} of a freshly built circuit: equal for
    problems whose circuits differ only in their source waveforms, the
    jobs whose converged MPDE surfaces can seed one another
    ({!Warm}). Raises whatever [build] raises. *)
