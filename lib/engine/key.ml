(* Canonical, versioned job identity. The hash is FNV-1a 64 over the
   typed fields: strings are terminated,
   floats contribute their full 8-byte IEEE image, so distinct field
   tuples cannot collide by concatenation. The version tag is mixed
   first — any change to the field set or encoding must bump it, which
   invalidates every stored key at once instead of silently aliasing
   old entries. *)

let version = "rfss.key/1"

(* ---------- the job key ---------- *)

(* The identity fields: what the solve computes, not how long it may
   run. [budget] and [initial_surface] are deliberately excluded — a
   warm start or a tighter deadline changes iteration counts and wall
   time but not the fixed point being solved for, and including them
   would make every warm-started request a cache miss. *)

let hash ~label ~engine ~f_fast ~fd ~options =
  let o = (options : Options.t) in
  let open Telemetry.Fnv in
  let h = basis in
  let h = mix_string h version in
  let h = mix_string h label in
  let h = mix_string h engine in
  let h = mix_float h f_fast in
  let h = mix_float h fd in
  let h = mix_int h o.Options.n1 in
  let h = mix_int h o.Options.n2 in
  let h = mix_int h o.Options.steps_per_period in
  let h = mix_int h o.Options.segments in
  let h = mix_int h o.Options.steps_per_segment in
  let h = mix_int h o.Options.harmonics in
  let h = mix_int h o.Options.points in
  let h = mix_int h o.Options.max_newton in
  let h = mix_float h o.Options.tol in
  let h = mix_int h (if o.Options.warm_start then 1 else 0) in
  (* The MPDE scheme tag and continuation flag: the backend always runs
     [Backward] (0) with continuation enabled (1). Both stay in the
     encoding so stored [rfss.key/1] keys keep matching. *)
  let h = mix_int h 0 in
  let h = mix_int h 1 in
  hex h
