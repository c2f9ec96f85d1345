(** The built-in circuit fixtures, shared by the CLI subcommands and
    the solve service's request validation, and the one validator of
    the tones both front ends solve at. Each fixture knows how to
    build its circuit for a given (f_fast, fd) tone pair, its default
    tones, and which node (or node pair) is the reported output. *)

type t = {
  name : string;
  description : string;
  build : f_fast:float -> fd:float -> Circuits.built;
  default_fast : float;
  default_fd : float;
  output_node : string;
  output_node_b : string option;  (** second node of a differential output *)
}

val all : t list

val find : string -> (t, string) result
(** Fixture by name, or an error message listing the valid names. *)

val resolve :
  ?engine:Engine.kind ->
  ?f_fast:float ->
  ?fd:float ->
  string ->
  (t * float * float, string) result
(** [resolve ?engine ?f_fast ?fd name] is the fixture [name] with its
    tones [(fixture, f_fast, fd)], each tone defaulting to the
    fixture's. The only tone validator: the CLI and
    {!Protocol.parse_job} both call it. [Error] names the bad value: an
    unknown circuit, a tone that is not finite and > 0, or
    [fd >= f_fast] when [engine] is [Mpde] ({!Mpde.Shear.make}'s
    precondition). Other engines, and no [engine] (DC, transient), may
    run with [fd > f_fast]. *)

val output_value : t -> Circuit.Mna.t -> Linalg.Vec.t -> float
(** The fixture's output voltage (differential when [output_node_b] is
    set) extracted from one circuit state. *)

val problem_of :
  ?period:Engine.Problem.period_choice ->
  ?label:string ->
  t ->
  f_fast:float ->
  fd:float ->
  Engine.Problem.t
(** Bridge to the unified engine API; [label] defaults to the fixture
    name (which is what {!Engine.Key} hashes). *)

val digest : t -> string
(** {!Engine.Problem.digest} of the fixture at its default tones: the
    solve service's warm-start key. One per fixture, so a
    request's own tones — and the detector's load capacitor, sized
    from them — never split a fixture's surfaces, and no two fixtures
    share one. *)
