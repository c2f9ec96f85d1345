(** Warm-start store: converged MPDE surfaces offered back as Newton
    initial guesses ({!Options.t.initial_surface}).

    A converged flattened grid state ([big_x]) from one tone pair is
    kept under its circuit's structural digest ({!Problem.digest}) and
    grid shape. A later solve of the same circuit on the same grid
    takes the stored surface nearest to its own tones in log-frequency
    distance. Two users share it: {!Sweep.run} seeds the non-anchor
    MPDE jobs of a sweep from their anchor, and the solve service
    seeds cache-near requests. Bounded (newest retained),
    thread-safe. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val offer :
  t -> digest:string -> n1:int -> n2:int -> f_fast:float -> fd:float ->
  Linalg.Vec.t -> unit
(** Retain a converged surface (deduplicating an identical parameter
    point, evicting the oldest beyond capacity). *)

val nearest :
  t -> digest:string -> n1:int -> n2:int -> f_fast:float -> fd:float ->
  Linalg.Vec.t option
(** Best matching surface for a solve: exact (digest, n1, n2) match,
    minimal [|ln Δf_fast| + |ln Δfd|]. Counts toward {!served} when
    one is found. *)

val served : t -> int
(** How many warm starts have been handed out. *)

val size : t -> int
