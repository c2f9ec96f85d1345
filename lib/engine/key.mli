(** Canonical, versioned job identity — the cache key of the solve
    service and the resume key of {!Checkpoint}.

    Two requests share a key exactly when they compute the same fixed
    point: same circuit label, engine, tone frequencies and
    discretization/convergence options. Fields that change *how fast*
    a solve converges but not *what* it converges to — the
    {!Options.t.budget} slice and the {!Options.t.initial_surface}
    warm-start seed — are deliberately excluded, so a warm-started
    resubmission still hits the cache entry its cold twin populated.

    The encoding is tagged ["rfss.key/1"]; the tag is mixed into the
    hash first, so any change to the field set or encoding must bump
    the version, invalidating all stored keys at once rather than
    silently aliasing old entries. A regression test pins a literal
    key value to catch accidental drift. *)

val hash :
  label:string ->
  engine:string ->
  f_fast:float ->
  fd:float ->
  options:Options.t ->
  string
(** 16-hex-digit FNV-1a 64 key of the identity fields. *)
