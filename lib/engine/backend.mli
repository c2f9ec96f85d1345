(** The unified solver surface: one [run] over the five steady-state
    backends, one result shape out.

    Every backend consumes the same {!Problem.t} and {!Options.t} and
    produces a {!Result.t} carrying the output-node waveform, RF
    metrics, the structured {!Resilience.Report.t}, a
    {!Diagnostics.Health.t} assessment, and (when telemetry is
    recording on the executing domain) the per-solve span summary —
    so method-vs-method comparisons need no per-engine glue. *)

type kind = Shooting | Multiple_shooting | Hb | Periodic_fd | Mpde

val kind_name : kind -> string
(** ["shooting"], ["multiple-shooting"], ["hb"], ["periodic-fd"],
    ["mpde"]. *)

val kind_of_name : string -> (kind, string) Stdlib.result
(** Case-insensitive; accepts the short aliases ["msh"] and ["pfd"].
    [Error] carries a human-readable message listing valid names. *)

module Result : sig
  type waveform = {
    times : float array;
        (** single-time engines: sample times over the solved period;
            MPDE: the [n2] envelope times along the slow scale *)
    values : float array;  (** output-node voltage at each time *)
  }

  type t = {
    kind : kind;
    label : string;  (** the problem's label *)
    converged : bool;
    newton_iterations : int;
    residual_norm : float;
    wall_seconds : float;  (** whole run: build, DC seed, solve, metrics *)
    waveform : waveform;
    metrics : (string * float) list;
        (** RF figures: [h1_amplitude]/[thd] for the single-time
            engines, [baseband_h1]/[thd] for MPDE *)
    report : Resilience.Report.t;
    health : Diagnostics.Health.t;
        (** {!Diagnostics.Health.of_report} of [report]: no κ or
            diagonal check ({!Diagnostics.Health.probe} adds them) *)
    telemetry : Telemetry.Summary.t option;
        (** per-solve span summary when the executing domain's
            recorder was enabled *)
    mpde_solution : Mpde.Solver.solution option;
        (** full bi-periodic solution for surface/diagonal extraction;
            [None] for the single-time engines *)
  }
end

type t = { kind : kind; options : Options.t }
(** An engine choice: backend plus the unified options. *)

val make : ?options:Options.t -> kind -> t
(** Defaults to {!Options.default}. *)

val options : t -> Options.t

val reset_workspace_slot : unit -> unit
(** Clear the calling domain's retained MPDE solver workspace. The
    backend keeps one workspace per domain (DLS) so repeated solves
    reuse the large numeric buffers; sweeps call this at the start of a
    run so worker 0 — the calling domain, whose slot outlives previous
    runs — starts as cold as the freshly spawned workers, keeping
    traced runs byte-identical. Reuse never changes solver results,
    only allocation behaviour. *)

val run : Problem.t -> t -> Result.t
(** Build the problem's circuit, seed from the DC operating point
    (when [options.warm_start]; solved once, outside [options.budget],
    and not at all for an MPDE solve given an [initial_surface]),
    dispatch to the chosen backend, and assemble the unified result.
    Never raises on solver non-convergence — inspect [converged] /
    [report]; it does let construction errors escape (e.g.
    {!Mpde.Shear.Off_lattice} or a raising [Problem.build] thunk),
    which {!Sweep} isolates per job. *)
