module Vec = Linalg.Vec

(* [qs] and [fs] hold q and f at the last load, [jacs] G and C at
   [loaded_x] while [loaded];
   [fits.(p)] is false where point p's last load left its pattern.
   [fresh] marks a job whose first load has not run. *)
type t = {
  size : int;
  points : int;
  mutable dae : Dae.t;
  mutable load_dae : Vec.t -> q:Vec.t -> f:Vec.t -> g:Sparse.Csr.t -> c:Sparse.Csr.t -> bool;
  qs : Vec.t array;
  fs : Vec.t array;
  x_buf : Vec.t;  (* staging slice of the stacked iterate *)
  mutable jacs : (Sparse.Csr.t * Sparse.Csr.t) array;  (* [||] until the first load *)
  mutable fresh : bool;
  fits : bool array;
  loaded_x : Vec.t;
  mutable loaded : bool;
  mutable patterns : Sparse.Csr.t list;  (* one per distinct per-point pattern *)
  mutable structure : int;
}

(* [points] vectors of [n] zeros. Built from the empty array, never
   from a young block: [Array.make] and [Array.init] of more than 256
   elements from a young block force a minor collection (OCaml 5.1's
   [caml_make_vect]). *)
let per_point points n =
  let vs = Array.make points [||] in
  for p = 0 to points - 1 do
    vs.(p) <- Array.make n 0.0
  done;
  vs

let create (dae : Dae.t) ~points =
  let n = dae.Dae.size in
  {
    size = n;
    points;
    dae;
    (* One private stamping workspace: [t] is single-domain, so this
       is the single writer. *)
    load_dae = dae.Dae.load ();
    qs = per_point points n;
    fs = per_point points n;
    x_buf = Array.make n 0.0;
    jacs = [||];
    fresh = true;
    fits = Array.make points false;
    loaded_x = Array.make (points * n) 0.0;
    loaded = false;
    patterns = [];
    structure = 0;
  }

let rebind t (dae : Dae.t) =
  if dae.Dae.size <> t.size then invalid_arg "Stacked.rebind: size mismatch";
  t.dae <- dae;
  t.load_dae <- dae.Dae.load ();
  t.fresh <- true;
  t.loaded <- false

let charges t = t.qs
let forces t = t.fs
let structure t = t.structure

(* Point [p]'s state: [x] itself for a single point, else staged in
   [x_buf] until the next call. *)
let state t x p =
  if t.points = 1 then x
  else begin
    let base = p * t.size and s = t.x_buf in
    for v = 0 to t.size - 1 do
      s.(v) <- x.(base + v)
    done;
    s
  end

let intern t (m : Sparse.Csr.t) =
  let same (r : Sparse.Csr.t) =
    r.Sparse.Csr.rows = m.Sparse.Csr.rows
    && r.Sparse.Csr.row_ptr = m.Sparse.Csr.row_ptr
    && r.Sparse.Csr.col_idx = m.Sparse.Csr.col_idx
  in
  match List.find_opt same t.patterns with
  | Some r -> { m with Sparse.Csr.row_ptr = r.Sparse.Csr.row_ptr; col_idx = r.Sparse.Csr.col_idx }
  | None ->
      t.patterns <- m :: t.patterns;
      m

let build t x p =
  let g, c = t.dae.Dae.jacobians (state t x p) in
  (intern t g, intern t c)

(* A static placeholder, so that sizing the per-point array forces no
   minor collection (see [per_point]). *)
let no_jacobians =
  ( { Sparse.Csr.rows = 0; cols = 0; row_ptr = [||]; col_idx = [||]; values = [||] },
    { Sparse.Csr.rows = 0; cols = 0; row_ptr = [||]; col_idx = [||]; values = [||] } )

(* A job's first load: point 0 from scratch, every other point on point
   0's interned pattern with values of its own, which the load then
   writes. A rebound [t] keeps each point's matrices when they already
   sit on that pattern (point 0's structure is interned against the
   last job's first), and their value arrays when the length fits. *)
let first_points t x =
  let old = t.jacs in
  t.patterns <- (if Array.length old > 0 then [ fst old.(0); snd old.(0) ] else []);
  let ((g0, c0) as jac0) = build t x 0 in
  t.patterns <-
    (if g0.Sparse.Csr.col_idx == c0.Sparse.Csr.col_idx then [ g0 ] else [ c0; g0 ]);
  let on_point0 (m0 : Sparse.Csr.t) (m : Sparse.Csr.t option) =
    match m with
    | Some m
      when m.Sparse.Csr.col_idx == m0.Sparse.Csr.col_idx
           && m.Sparse.Csr.row_ptr == m0.Sparse.Csr.row_ptr ->
        m
    | Some m when Array.length m.Sparse.Csr.values = Array.length m0.Sparse.Csr.values ->
        { m0 with Sparse.Csr.values = m.Sparse.Csr.values }
    | _ -> { m0 with Sparse.Csr.values = Array.make (Array.length m0.Sparse.Csr.values) 0.0 }
  in
  let keep p = if Array.length old > 0 then Some old.(p) else None in
  let jacs = Array.make t.points no_jacobians in
  jacs.(0) <- jac0;
  for p = 1 to t.points - 1 do
    let old = keep p in
    jacs.(p) <- (on_point0 g0 (Option.map fst old), on_point0 c0 (Option.map snd old))
  done;
  t.jacs <- jacs;
  t.structure <- t.structure + 1;
  t.fresh <- false

let load_into t x =
  if t.fresh then first_points t x;
  for p = 0 to t.points - 1 do
    let g, c = t.jacs.(p) in
    t.fits.(p) <- t.load_dae (state t x p) ~q:t.qs.(p) ~f:t.fs.(p) ~g ~c
  done;
  Array.blit x 0 t.loaded_x 0 (t.points * t.size);
  t.loaded <- true

(* q and f alone: every point loads into one pair of matrices with no
   entries, so nothing is built or kept for G and C. *)
let load_charges t x =
  let n = t.size in
  let empty =
    { Sparse.Csr.rows = n; cols = n; row_ptr = Array.make (n + 1) 0; col_idx = [||]; values = [||] }
  in
  for p = 0 to t.points - 1 do
    ignore (t.load_dae (state t x p) ~q:t.qs.(p) ~f:t.fs.(p) ~g:empty ~c:empty)
  done;
  t.loaded <- false

let load ?(jacobians = true) t x =
  if Array.length x <> t.points * t.size then invalid_arg "Stacked.load: x has the wrong length";
  if jacobians then load_into t x else load_charges t x

(* Point [p] from scratch; the structure moves only when its interned
   pattern changes. *)
let rebuild t x p =
  Telemetry.count "stacked.jacobian_rebuilds";
  let ((g, c) as jac) = build t x p in
  let g0, c0 = t.jacs.(p) in
  if g.Sparse.Csr.col_idx != g0.Sparse.Csr.col_idx || c.Sparse.Csr.col_idx != c0.Sparse.Csr.col_idx
  then t.structure <- t.structure + 1;
  t.jacs.(p) <- jac;
  t.fits.(p) <- true

let jacobians t x =
  if not (t.loaded && Vec.same_bits t.loaded_x x) then load_into t x;
  for p = 0 to t.points - 1 do
    if not t.fits.(p) then rebuild t x p
  done;
  t.jacs
