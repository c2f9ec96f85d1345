(** A {!Dae.t} at every point of a stacked iterate: [points] states of
    [size] unknowns each, one after another — the unknown of a periodic
    collocation problem ({!Collocation}) and of the MPDE grid.

    One {!load} walks the devices once per point and keeps each point's
    q, f, G and C. The Jacobians of a solve at the
    same iterate are those values: Newton always solves at the iterate
    whose residual it just evaluated, so an iteration walks the devices
    once per point. The first load builds point 0's patterns from
    [dae.jacobians] and puts every other point on them; a point whose
    stamps leave its pattern (a stamp crossed an exact zero) is rebuilt
    from [dae.jacobians] when its Jacobians are asked for. Structurally
    equal patterns share one pair of [row_ptr]/[col_idx] arrays, so the
    load compiles one program for all the points that share them.
    Every value is bitwise a fresh build's (an entry a shared pattern
    has and a fresh build lacks holds +0).

    Single-domain, like the workspaces that hold it. *)

type t

val create : Dae.t -> points:int -> t

val rebind : t -> Dae.t -> unit
(** [rebind t dae] binds [t] to a new job's DAE of the same size: the
    per-point buffers and matrices are kept, and the next load puts
    every point back on the new point 0's pattern, so the results are
    those of a fresh {!create}, bit for bit.
    @raise Invalid_argument when [dae.size] differs. *)

val load : ?jacobians:bool -> t -> Linalg.Vec.t -> unit
(** [load t x] loads q, f, G and C at every point of [x]. With
    [~jacobians:false] (a residual no solve follows, such as a one-shot
    check) it loads q and f alone and keeps no G or C: the next
    {!jacobians} loads afresh. A single point's device walk reads [x]
    itself; more points stage each point's state in one buffer. *)

val charges : t -> Linalg.Vec.t array
(** q per point, as of the last {!load}: owned by [t]. *)

val forces : t -> Linalg.Vec.t array
(** f per point, as of the last {!load}: owned by [t]. *)

val jacobians : t -> Linalg.Vec.t -> (Sparse.Csr.t * Sparse.Csr.t) array
(** [(G, C)] per point at [x]: the last {!load}'s when [x] is its
    iterate bit for bit, else those of a new load at [x]; then every
    point that drifted is rebuilt. The array and its matrices are owned
    by [t] and overwritten by the next load. *)

val structure : t -> int
(** A counter that moves whenever a point's pattern arrays change (the
    first load of a job, and a rebuild onto a new pattern), and on
    nothing else: a cache keyed on the points' patterns is valid while
    it stands still. *)
