(* A factored diagonal block's structure. The values of point p live in
   [vals] at [offs.(p)]: strict-L row i at [ptr.(i) .. ptr.(i+1) − 1],
   strict-U row i at [ptr.(n+i) .. ptr.(n+i+1) − 1] (columns in
   [cols] at the same indices, ascending within a row), then the n
   diagonal entries from [ptr.(2n)]. Patterns are interned in the
   workspace: two points have physically the same pattern exactly when
   their permutations and L/U structures are equal. *)
type pattern = { perm : int array; ptr : int array; cols : int array }

let no_pattern = { perm = [||]; ptr = [||]; cols = [||] }

(* A compiled factor schedule: the elimination of one G/C stamp
   structure under one pivot order, as operations on store slots (a
   slot is an index into a point's [vals] region, in [pat]'s layout).
   [pat] is the symbolic factor structure: the permuted stamp entries
   and their fill, the diagonal always included. G's CSR entry k is
   stamped into [g_slot.(k)], C's into [c_slot.(k)], and, when
   [loaded], [extra_diag] into [d_slot.(i)], the slot of D_p(i, i).
   Column k of the elimination divides the multiplier slots
   [mult.(m)], [col_ptr.(k) <= m < col_ptr.(k+1)], by the pivot slot,
   and multiplier m updates the slots [targets.(tgt_ptr.(m) + q)] by
   U row k's q-th entry. The key is the structure arrays (rebound to
   the caller's arrays when their contents match), [pat.perm] and
   [loaded]: a nonzero [extra_diag] stamps every D_p(i, i), which may
   add slots. *)
type schedule = {
  loaded : bool;
  mutable g_ptr : int array;
  mutable g_cols : int array;
  mutable c_ptr : int array;
  mutable c_cols : int array;
  pat : pattern;
  g_slot : int array;
  c_slot : int array;
  d_slot : int array;
  col_ptr : int array;
  mult : int array;
  tgt_ptr : int array;
  targets : int array;
}

let no_schedule =
  {
    loaded = false;
    g_ptr = [||];
    g_cols = [||];
    c_ptr = [||];
    c_cols = [||];
    pat = no_pattern;
    g_slot = [||];
    c_slot = [||];
    d_slot = [||];
    col_ptr = [||];
    mult = [||];
    tgt_ptr = [||];
    targets = [||];
  }

(* One axis's coupling rows, flat: row r's entries are
   [ptr.(r) .. ptr.(r+1) − 1], entry e coupling point p to the point
   whose block starts [off.(e)] floats after p's (negative for an
   earlier point) with coefficient [coef.(e)], in index order along
   the axis. *)
type couplings = { ptr : int array; off : int array; coef : float array }

(* The sweep's share of the operator pair and the rest. Per fast index
   i: [scales.(i)], the weight of C_p in D_p, and row i of [lower1],
   M's t1 couplings as right-side terms (l < i, −w/s); per slow index
   j: row j of [lower2], M's backward t2 coupling (j − 1, 1/h2).
   [rest1] and [rest2] hold R = J − M on each axis, the diagonal
   included. Derived once per operator pair, grid and block size, and
   kept while they stay the same. *)
type split = {
  op1 : Numeric.Collocation.operator;
  op2 : Numeric.Collocation.operator;
  h2 : float;
  n1 : int;
  n2 : int;
  scales : float array;
  lower1 : couplings;
  lower2 : couplings;
  rest1 : couplings;
  rest2 : couplings;
}

type t = {
  n : int;
  np : int;
  stage : Linalg.Mat.t;  (* n×n staging block of the dense path, factored in place *)
  stage_perm : int array;  (* n: the staging block's row permutation *)
  pats : pattern array;  (* per point; physically shared within a run *)
  offs : int array;  (* per point offset into [vals] *)
  mutable vals : float array;
  mutable runs : int;  (* 0 until a build completes *)
  mutable refactors : int;  (* points of the current build factored on a schedule *)
  mutable sched : schedule;  (* the last point's, or [no_schedule] *)
  mutable scheds : schedule list;  (* interned, newest first *)
  mutable interned : pattern list;  (* every pattern a schedule or point uses *)
  mutable split : split option;  (* of the last build *)
  mutable jacs : (Sparse.Csr.t * Sparse.Csr.t) array;  (* of the last build *)
  y : Linalg.Vec.t;  (* n: one point's substitution *)
  cy : Linalg.Vec.t;  (* np*n: C_p·y_p, written as each point is solved *)
  sx : Linalg.Vec.t;  (* np*n result, returned to GMRES *)
}

let create ~n ~np =
  {
    n;
    np;
    stage = Linalg.Mat.create n n;
    stage_perm = Array.make n 0;
    pats = Array.make np no_pattern;
    offs = Array.make np 0;
    vals = Array.make (np * n) 0.0;
    runs = 0;
    refactors = 0;
    sched = no_schedule;
    scheds = [];
    interned = [];
    split = None;
    jacs = [||];
    y = Array.make n 0.0;
    cy = Array.make (np * n) 0.0;
    sx = Array.make (np * n) 0.0;
  }

let fits t ~n ~np = t.n = n && t.np = np
let patterns t = t.runs
let c_products t = t.cy

(* [a − b] for two rows of (index, coefficient) entries: one entry per
   index whose coefficients differ, in index order. *)
let row_difference a b =
  let sum row l = List.fold_left (fun s (l', c) -> if l' = l then s +. c else s) 0.0 row in
  List.sort_uniq compare (List.map fst a @ List.map fst b)
  |> List.filter_map (fun l ->
         let c = sum a l -. sum b l in
         if c = 0.0 then None else Some (l, c))
  |> Array.of_list

(* Rows of (index along the axis, coefficient) entries, flattened with
   each index turned into a block offset from the row's own point:
   [(l − r)·stride·n] floats. *)
let flatten ~stride ~n rows =
  let ptr = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun r row -> ptr.(r + 1) <- ptr.(r) + Array.length row) rows;
  let entries =
    Array.concat
      (Array.to_list (Array.mapi (fun r -> Array.map (fun (l, c) -> ((l - r) * stride * n, c))) rows))
  in
  { ptr; off = Array.map fst entries; coef = Array.map snd entries }

(* M and R on both axes, for blocks of [n] unknowns. A row of J on an
   axis is its operator's row (diagonal as
   {!Numeric.Collocation.diagonal} sums it, then the other entries'
   w/s); M's t1 row is J's diagonal and lower entries when the t1
   operator is lower-triangular, and empty otherwise, when the sweep is
   a block Gauss-Seidel over the t2 columns; M's t2 row is always the
   backward difference without its wrap. *)
let split_of (op1, op2) (g : Grid.t) ~n =
  let module C = Numeric.Collocation in
  let inv_h2 = 1.0 /. g.Grid.h2 and tri = C.lower_triangular op1 in
  let self1 = C.diagonal op1 and self2 = C.diagonal op2 in
  let row (op : C.operator) self r =
    (r, self.(r))
    :: List.filter_map
         (fun (l, w) -> if l = r then None else Some (l, w /. op.C.scale))
         (Array.to_list op.C.weights.(r))
  in
  let m1 i = if tri then List.filter (fun (l, _) -> l <= i) (row op1 self1 i) else [] in
  let m2 j = (j, inv_h2) :: (if j > 0 then [ (j - 1, -.inv_h2) ] else []) in
  let right_side m r =
    Array.of_list (List.filter_map (fun (l, c) -> if l = r then None else Some (l, -.c)) m)
  in
  let n1 = g.Grid.n1 and n2 = g.Grid.n2 in
  let axis1 = flatten ~stride:1 ~n and axis2 = flatten ~stride:n1 ~n in
  {
    op1;
    op2;
    h2 = g.Grid.h2;
    n1;
    n2;
    scales = Array.init n1 (fun i -> (if tri then self1.(i) else 0.0) +. inv_h2);
    lower1 = axis1 (Array.init n1 (fun i -> right_side (m1 i) i));
    lower2 = axis2 (Array.init n2 (fun j -> right_side (m2 j) j));
    rest1 = axis1 (Array.init n1 (fun i -> row_difference (row op1 self1 i) (m1 i)));
    rest2 = axis2 (Array.init n2 (fun j -> row_difference (row op2 self2 j) (m2 j)));
  }

(* [a] and [b] hold the same ints: one typed loop, no closure. *)
let ints_equal (a : int array) (b : int array) =
  a == b
  ||
  let len = Array.length a in
  len = Array.length b
  &&
  let i = ref 0 in
  while !i < len && Array.unsafe_get a !i = Array.unsafe_get b !i do
    incr i
  done;
  !i = len

let csr_values_equal (a : Sparse.Csr.t) (b : Sparse.Csr.t) =
  let va = a.Sparse.Csr.values and vb = b.Sparse.Csr.values in
  let len = Array.length va in
  len = Array.length vb
  && ints_equal a.Sparse.Csr.col_idx b.Sparse.Csr.col_idx
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < len do
    (* [<>] makes a NaN entry read as "not uniform" — fails safe. *)
    if va.(!i) <> vb.(!i) then ok := false;
    incr i
  done;
  !ok

(* The MPDE Jacobian's per-point blocks are functions of the per-point
   state only, so at a replicated seed (DC operating point, zero state
   — how every Newton stage starts) all np blocks are equal and one
   factorization serves the whole sweep. Early-exits at the first
   differing block. *)
let blocks_uniform (jacs : (Sparse.Csr.t * Sparse.Csr.t) array) =
  let g0, c0 = jacs.(0) in
  let ok = ref true and p = ref 1 in
  while !ok && !p < Array.length jacs do
    let gp, cp = jacs.(!p) in
    if not (csr_values_equal gp g0 && csr_values_equal cp c0) then ok := false;
    incr p
  done;
  !ok

(* The dense path. Stamp D_p = scale_c·C_p + G_p (+ extra_diag·I)
   straight from the CSR arrays into the staging matrix and factor it
   in place: the packed factors are left in [t.stage], the permutation
   in [t.stage_perm]. *)
let[@inline] factor_point t ~scale_c ~(gp : Sparse.Csr.t) ~(cp : Sparse.Csr.t) ~extra_diag =
  let n = t.n in
  let a = t.stage.Linalg.Mat.data in
  Array.fill a 0 (n * n) 0.0;
  let crp = cp.Sparse.Csr.row_ptr
  and cci = cp.Sparse.Csr.col_idx
  and cv = cp.Sparse.Csr.values in
  let grp = gp.Sparse.Csr.row_ptr
  and gci = gp.Sparse.Csr.col_idx
  and gv = gp.Sparse.Csr.values in
  for i = 0 to n - 1 do
    let ib = i * n in
    for k = crp.(i) to crp.(i + 1) - 1 do
      let e = ib + cci.(k) in
      a.(e) <- a.(e) +. (scale_c *. cv.(k))
    done;
    for k = grp.(i) to grp.(i + 1) - 1 do
      let e = ib + gci.(k) in
      a.(e) <- a.(e) +. gv.(k)
    done;
    if extra_diag <> 0.0 then a.(ib + i) <- a.(ib + i) +. extra_diag
  done;
  Linalg.Lu.factor_in_place t.stage ~perm:t.stage_perm

(* The structure of packed factors [a]: every off-diagonal entry that
   is not exactly zero (NaN included) is kept. *)
let pattern_of n (a : float array) perm =
  let ptr = Array.make ((2 * n) + 1) 0 in
  let row i j = if j < i then i else n + i in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j <> i && a.((i * n) + j) <> 0.0 then
        ptr.(row i j + 1) <- ptr.(row i j + 1) + 1
    done
  done;
  for r = 1 to 2 * n do
    ptr.(r) <- ptr.(r) + ptr.(r - 1)
  done;
  let cols = Array.make ptr.(2 * n) 0 in
  let next = Array.sub ptr 0 (2 * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j <> i && a.((i * n) + j) <> 0.0 then begin
        cols.(next.(row i j)) <- j;
        next.(row i j) <- next.(row i j) + 1
      end
    done
  done;
  { perm; ptr; cols }

exception Mismatch

(* One strict-L or strict-U segment of [extract]: row [ib / n]'s
   columns [j0 .. j1] against [pat]'s entries [k0 .. k1 − 1]. *)
let extract_segment cols (a : float array) vals off ib k0 k1 j0 j1 =
  let k = ref k0 in
  for j = j0 to j1 do
    let v = Array.unsafe_get a (ib + j) in
    if v <> 0.0 then begin
      if !k >= k1 || Array.unsafe_get cols !k <> j then raise_notrace Mismatch;
      Array.unsafe_set vals (off + !k) v;
      incr k
    end
  done;
  if !k <> k1 then raise_notrace Mismatch

(* Copy the nonzero entries of packed factors [a] with permutation
   [perm] into [vals] at [off] following [pat]'s layout, checking on
   the way that [pat] has that permutation and lists exactly those
   entries: one fused pass. [false] (with [vals] partly written) at the
   first difference. *)
let extract pat n (a : float array) perm vals off =
  ints_equal pat.perm perm
  &&
  let ptr = pat.ptr and cols = pat.cols in
  let diag = off + ptr.(2 * n) in
  match
    for i = 0 to n - 1 do
      let ib = i * n in
      extract_segment cols a vals off ib ptr.(i) ptr.(i + 1) 0 (i - 1);
      extract_segment cols a vals off ib ptr.(n + i) ptr.(n + i + 1) (i + 1) (n - 1);
      Array.unsafe_set vals (diag + i) (Array.unsafe_get a (ib + i))
    done
  with
  | () -> true
  | exception Mismatch -> false

(* The interned pattern equal to [pat], interning [pat] if none is. *)
let intern t pat =
  let same q = ints_equal q.perm pat.perm && ints_equal q.ptr pat.ptr && ints_equal q.cols pat.cols in
  match List.find_opt same t.interned with
  | Some q -> q
  | None ->
      t.interned <- pat :: t.interned;
      pat

(* Compile the schedule of [g]/[c]'s stamp structure (plus D_p's
   diagonal when [loaded]) under pivot order [perm] (the row of D_p at
   factor row r is [perm.(r)]). The symbolic structure is the permuted
   stamp pattern plus the factor's diagonal, closed under fill: (r, k)
   and (k, j) with k < r, j give (r, j). *)
let compile t ~loaded (g : Sparse.Csr.t) (c : Sparse.Csr.t) perm =
  let n = t.n in
  let pinv = Array.make n 0 in
  Array.iteri (fun r i -> pinv.(i) <- r) perm;
  (* The structure as a mask in factor order: 1.0 marks an entry. *)
  let nz = Array.make (n * n) 0.0 in
  let mark (m : Sparse.Csr.t) =
    for i = 0 to n - 1 do
      for k = m.Sparse.Csr.row_ptr.(i) to m.Sparse.Csr.row_ptr.(i + 1) - 1 do
        nz.((pinv.(i) * n) + m.Sparse.Csr.col_idx.(k)) <- 1.0
      done
    done
  in
  mark g;
  mark c;
  if loaded then
    for r = 0 to n - 1 do
      nz.((r * n) + perm.(r)) <- 1.0
    done;
  for k = 0 to n - 1 do
    for r = k + 1 to n - 1 do
      if nz.((r * n) + k) <> 0.0 then
        for j = k + 1 to n - 1 do
          if nz.((k * n) + j) <> 0.0 then nz.((r * n) + j) <- 1.0
        done
    done
  done;
  (* Laid out as packed factors with exactly these nonzeros would be. *)
  let ({ ptr; cols; _ } as pat) = pattern_of n nz (Array.copy perm) in
  let slot = Array.make_matrix n n (-1) in
  for r = 0 to n - 1 do
    slot.(r).(r) <- ptr.(2 * n) + r;
    for q = ptr.(r) to ptr.(r + 1) - 1 do
      slot.(r).(cols.(q)) <- q
    done;
    for q = ptr.(n + r) to ptr.(n + r + 1) - 1 do
      slot.(r).(cols.(q)) <- q
    done
  done;
  let stamp_slots (m : Sparse.Csr.t) =
    let s = Array.make (Array.length m.Sparse.Csr.col_idx) 0 in
    for i = 0 to n - 1 do
      for k = m.Sparse.Csr.row_ptr.(i) to m.Sparse.Csr.row_ptr.(i + 1) - 1 do
        s.(k) <- slot.(pinv.(i)).(m.Sparse.Csr.col_idx.(k))
      done
    done;
    s
  in
  (* Column k's multipliers (r, k), r ascending; each updates (r, j)
     for U row k's columns j, in the row's order. *)
  let mult = ref [] and tgt_ptr = ref [] and targets = ref [] and ntargets = ref 0 in
  let col_ptr = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    for r = k + 1 to n - 1 do
      if nz.((r * n) + k) <> 0.0 then begin
        col_ptr.(k + 1) <- col_ptr.(k + 1) + 1;
        mult := slot.(r).(k) :: !mult;
        tgt_ptr := !ntargets :: !tgt_ptr;
        for q = ptr.(n + k) to ptr.(n + k + 1) - 1 do
          targets := slot.(r).(cols.(q)) :: !targets;
          incr ntargets
        done
      end
    done;
    col_ptr.(k + 1) <- col_ptr.(k + 1) + col_ptr.(k)
  done;
  let rev l = Array.of_list (List.rev l) in
  {
    loaded;
    g_ptr = g.Sparse.Csr.row_ptr;
    g_cols = g.Sparse.Csr.col_idx;
    c_ptr = c.Sparse.Csr.row_ptr;
    c_cols = c.Sparse.Csr.col_idx;
    pat = intern t pat;
    g_slot = stamp_slots g;
    c_slot = stamp_slots c;
    d_slot = Array.init n (fun i -> slot.(pinv.(i)).(i));
    col_ptr;
    mult = rev !mult;
    tgt_ptr = rev !tgt_ptr;
    targets = rev !targets;
  }

(* Is [s] compiled for [g]/[c]'s stamp structure? A match on contents
   rebinds the key to the caller's arrays, so the points that share
   them (assembly interns equal patterns) match physically after. *)
let same_structure s (g : Sparse.Csr.t) (c : Sparse.Csr.t) =
  let gp = g.Sparse.Csr.row_ptr and gc = g.Sparse.Csr.col_idx
  and cp = c.Sparse.Csr.row_ptr and cc = c.Sparse.Csr.col_idx in
  (s.g_cols == gc && s.c_cols == cc && s.g_ptr == gp && s.c_ptr == cp)
  || ints_equal s.g_cols gc && ints_equal s.c_cols cc && ints_equal s.g_ptr gp
     && ints_equal s.c_ptr cp
     && begin
          s.g_ptr <- gp;
          s.g_cols <- gc;
          s.c_ptr <- cp;
          s.c_cols <- cc;
          true
        end

(* The newest interned schedule for [g]/[c]'s structure and [loaded],
   or [no_schedule]. *)
let rec newest_for ~loaded g c = function
  | [] -> no_schedule
  | s :: rest ->
      if s.loaded = loaded && same_structure s g c then s else newest_for ~loaded g c rest

(* The interned schedule for [g]/[c], [loaded] and [perm], compiled if
   new. *)
let schedule_for t ~loaded g c perm =
  let fits s = s.loaded = loaded && ints_equal s.pat.perm perm && same_structure s g c in
  match List.find_opt fits t.scheds with
  | Some s -> s
  | None ->
      let s = compile t ~loaded g c perm in
      t.scheds <- s :: t.scheds;
      s

exception Fallback

(* Factor one point on schedule [s] into [vals] at [off]: stamp the
   block (C weighted by [scales.(si)]) into its slots, then eliminate
   in dense k-order, each slot receiving the dense factorization's
   operations in the dense order.
   The result is bitwise the dense path's (DESIGN.md §12) when every
   pivot strictly dominates the rest of its column (so partial
   pivoting picks the same row) and every slot ends finite and
   nonzero (so the dense path's nonzeros are exactly the slots).
   @raise Fallback otherwise, with [vals] partly written. *)
let refactor s n (vals : float array) off ~scales ~si ~(gp : Sparse.Csr.t)
    ~(cp : Sparse.Csr.t) ~extra_diag =
  let ptr = s.pat.ptr and scale_c = Array.unsafe_get scales si in
  let dg = off + Array.unsafe_get ptr (2 * n) in
  let last = dg + n - 1 in
  Array.fill vals off (last - off + 1) 0.0;
  let crp = cp.Sparse.Csr.row_ptr and cv = cp.Sparse.Csr.values and c_slot = s.c_slot in
  let grp = gp.Sparse.Csr.row_ptr and gv = gp.Sparse.Csr.values and g_slot = s.g_slot in
  for i = 0 to n - 1 do
    for k = Array.unsafe_get crp i to Array.unsafe_get crp (i + 1) - 1 do
      let e = off + Array.unsafe_get c_slot k in
      Array.unsafe_set vals e (Array.unsafe_get vals e +. (scale_c *. Array.unsafe_get cv k))
    done;
    for k = Array.unsafe_get grp i to Array.unsafe_get grp (i + 1) - 1 do
      let e = off + Array.unsafe_get g_slot k in
      Array.unsafe_set vals e (Array.unsafe_get vals e +. Array.unsafe_get gv k)
    done;
    if extra_diag <> 0.0 then begin
      let e = off + Array.unsafe_get s.d_slot i in
      Array.unsafe_set vals e (Array.unsafe_get vals e +. extra_diag)
    end
  done;
  let col_ptr = s.col_ptr and mult = s.mult and tgt_ptr = s.tgt_ptr and targets = s.targets in
  for k = 0 to n - 1 do
    let pv = Array.unsafe_get vals (dg + k) in
    let apv = Float.abs pv in
    (* [not (_ >= _)] and [not (_ > _)] also reject NaN. *)
    if not (apv >= Linalg.Lu.default_pivot_tol) then raise_notrace Fallback;
    let m0 = Array.unsafe_get col_ptr k and m1 = Array.unsafe_get col_ptr (k + 1) in
    for m = m0 to m1 - 1 do
      if not (apv > Float.abs (Array.unsafe_get vals (off + Array.unsafe_get mult m))) then
        raise_notrace Fallback
    done;
    let u0 = off + Array.unsafe_get ptr (n + k) in
    let ulen = Array.unsafe_get ptr (n + k + 1) - Array.unsafe_get ptr (n + k) in
    for m = m0 to m1 - 1 do
      let e = off + Array.unsafe_get mult m in
      let f = Array.unsafe_get vals e /. pv in
      Array.unsafe_set vals e f;
      let t0 = Array.unsafe_get tgt_ptr m in
      for q = 0 to ulen - 1 do
        let e = off + Array.unsafe_get targets (t0 + q) in
        Array.unsafe_set vals e
          (Array.unsafe_get vals e -. (f *. Array.unsafe_get vals (u0 + q)))
      done
    done
  done;
  for e = off to last do
    let v = Array.unsafe_get vals e in
    if v = 0.0 || v -. v <> 0.0 then raise_notrace Fallback
  done

(* Factor point [p] and store it at [off]; returns its pattern. The
   point tries the previous point's schedule when it was compiled for
   the point's stamp structure, else the newest interned one that was,
   else one compiled for the structure under the previous pivot order.
   When it rejects the point (or no point has been factored yet), the
   point is stamped and factored densely and stored under [prev]'s
   pattern, its schedule's or a fresh interned one, and its pivot order
   selects (or compiles) the schedule for the next point. *)
let store_point t ~scales ~n1 ~jacs ~extra_diag ~prev ~off p =
  let n = t.n in
  let gp, cp = jacs.(p) in
  let si = p mod n1 in
  (* A point takes at most n² values; grow geometrically. *)
  if off + (n * n) > Array.length t.vals then begin
    let bigger = Array.make (max (2 * Array.length t.vals) (off + (n * n))) 0.0 in
    Array.blit t.vals 0 bigger 0 off;
    t.vals <- bigger
  end;
  let loaded = extra_diag <> 0.0 in
  let s =
    let last = t.sched in
    if last == no_schedule then last
    else if last.loaded = loaded && same_structure last gp cp then last
    else
      let s = newest_for ~loaded gp cp t.scheds in
      if s != no_schedule then s else schedule_for t ~loaded gp cp last.pat.perm
  in
  let on_schedule =
    s != no_schedule
    &&
    match refactor s n t.vals off ~scales ~si ~gp ~cp ~extra_diag with
    | () -> true
    | exception Fallback -> false
  in
  if on_schedule then begin
    t.sched <- s;
    t.refactors <- t.refactors + 1;
    s.pat
  end
  else begin
    factor_point t ~scale_c:scales.(si) ~gp ~cp ~extra_diag;
    let a = t.stage.Linalg.Mat.data and perm = t.stage_perm in
    let s = schedule_for t ~loaded gp cp perm in
    t.sched <- s;
    if extract prev n a perm t.vals off then prev
    else if extract s.pat n a perm t.vals off then s.pat
    else begin
      let pat = intern t (pattern_of n a (Array.copy perm)) in
      ignore (extract pat n a perm t.vals off : bool);
      pat
    end
  end

(* Interned schedules kept across builds; past this many (several
   circuits through one workspace) a build starts afresh. *)
let max_schedules = 64

let build t ((op1, op2) as ops) (g : Grid.t) ~jacs ~extra_diag =
  Telemetry.span "mpde.precond.build" @@ fun () ->
  let n = t.n in
  let sp =
    match t.split with
    | Some sp when sp.op1 == op1 && sp.op2 == op2 && sp.h2 = g.Grid.h2 -> sp
    | _ ->
        let sp = split_of ops g ~n in
        t.split <- Some sp;
        sp
  in
  let scales = sp.scales in
  let store ~prev ~off p =
    store_point t ~scales ~n1:sp.n1 ~jacs ~extra_diag ~prev ~off p
  in
  if List.compare_length_with t.scheds max_schedules > 0 then begin
    t.scheds <- [];
    t.interned <- [];
    t.sched <- no_schedule
  end;
  (* A build cut short by a singular block leaves no usable store. *)
  t.runs <- 0;
  t.refactors <- 0;
  t.jacs <- jacs;
  if blocks_uniform jacs && Array.for_all (fun s -> s = scales.(0)) scales then begin
    Telemetry.count "mpde.precond.shared_builds";
    Array.fill t.pats 0 t.np (store ~prev:no_pattern ~off:0 0);
    Array.fill t.offs 0 t.np 0;
    t.runs <- 1
  end
  else begin
    let prev = ref no_pattern and off = ref 0 and runs = ref 0 in
    for p = 0 to t.np - 1 do
      let pat = store ~prev:!prev ~off:!off p in
      if pat != !prev then incr runs;
      t.pats.(p) <- pat;
      t.offs.(p) <- !off;
      off := !off + pat.ptr.(2 * n) + n;
      prev := pat
    done;
    t.runs <- !runs
  end;
  Telemetry.count ~by:t.refactors "mpde.precond.refactors";
  Telemetry.gauge "mpde.precond.patterns" (float_of_int t.runs)

(* cy_p = C_p y_p, each row summed from 0.0 in CSR order. *)
let[@inline] c_times (cy : Linalg.Vec.t) n (c : Sparse.Csr.t) (y : float array) base =
  let rp = c.Sparse.Csr.row_ptr and ci = c.Sparse.Csr.col_idx and cv = c.Sparse.Csr.values in
  for row = 0 to n - 1 do
    let s = ref 0.0 in
    for k = Array.unsafe_get rp row to Array.unsafe_get rp (row + 1) - 1 do
      s := !s +. (Array.unsafe_get cv k *. Array.unsafe_get y (Array.unsafe_get ci k))
    done;
    Array.unsafe_set cy (base + row) !s
  done

(* The split of a completed build. *)
let built t =
  match t.split with
  | Some sp when t.runs > 0 -> sp
  | _ -> invalid_arg "Block_sweep.apply: no factors built"

(* One pass in lexicographic point order: point (i,j) reads only the
   already-solved (l < i, j) and (i, j−1). Per point, one loop gathers
   the permuted right side y_k = r_{perm k} + Σ_e c_e·(C_q y_q)_{perm k}
   over M's lower t1 couplings and then its t2 couplings (from [cy]),
   each sum started from r and taken in that order (DESIGN.md §12 on
   why the bits hold); then forward/back substitution over the stored
   nonzeros, and C_p y_p into [cy]. A point's pattern arrays are read only when they
   differ from the previous point's. With [~keep:false] (the product)
   y is not stored into the output, which the caller overwrites. *)
let sweep ~keep t (r : Linalg.Vec.t) =
  let sp = built t in
  if Array.length r <> t.np * t.n then invalid_arg "Block_sweep.apply: dimension mismatch";
  Telemetry.count "mpde.precond.sweeps";
  let n = t.n and n1 = sp.n1 and jacs = t.jacs in
  let x = t.sx and y = t.y and cy = t.cy and vals = t.vals and pats = t.pats in
  let { ptr = l1_ptr; off = l1_off; coef = l1_coef } = sp.lower1 in
  let { ptr = l2_ptr; off = l2_off; coef = l2_coef } = sp.lower2 in
  let pat = ref no_pattern and perm = ref [||] and ptr = ref [||] and cols = ref [||] in
  for j = 0 to sp.n2 - 1 do
    let e2 = Array.unsafe_get l2_ptr j and e2_end = Array.unsafe_get l2_ptr (j + 1) in
    for i = 0 to n1 - 1 do
      let p = (j * n1) + i in
      let base = p * n in
      let e1 = Array.unsafe_get l1_ptr i and e1_end = Array.unsafe_get l1_ptr (i + 1) in
      let pp = Array.unsafe_get pats p in
      if pp != !pat then begin
        pat := pp;
        perm := pp.perm;
        ptr := pp.ptr;
        cols := pp.cols
      end;
      let perm = !perm and ptr = !ptr and cols = !cols in
      if e1_end - e1 = 1 && e2_end - e2 = 1 then begin
        (* An interior point of a backward grid: one coupling per axis.
           The generic loop below gives the same sum in the same order,
           (r + c1·cy1) + c2·cy2; written straight, without its two
           inner loops per row, the sweep on the 40×30 mixer takes
           about 15 % less time. *)
        let c1 = Array.unsafe_get l1_coef e1 and o1 = Array.unsafe_get l1_off e1 in
        let c2 = Array.unsafe_get l2_coef e2 and o2 = Array.unsafe_get l2_off e2 in
        for k = 0 to n - 1 do
          let pk = base + Array.unsafe_get perm k in
          Array.unsafe_set y k
            (Array.unsafe_get r pk
            +. (c1 *. Array.unsafe_get cy (pk + o1))
            +. (c2 *. Array.unsafe_get cy (pk + o2)))
        done
      end
      else
        for k = 0 to n - 1 do
          let pk = base + Array.unsafe_get perm k in
          let s = ref (Array.unsafe_get r pk) in
          for e = e1 to e1_end - 1 do
            s :=
              !s
              +. (Array.unsafe_get l1_coef e *. Array.unsafe_get cy (pk + Array.unsafe_get l1_off e))
          done;
          for e = e2 to e2_end - 1 do
            s :=
              !s
              +. (Array.unsafe_get l2_coef e *. Array.unsafe_get cy (pk + Array.unsafe_get l2_off e))
          done;
          Array.unsafe_set y k !s
        done;
      let o = Array.unsafe_get t.offs p in
      (* Forward substitution with unit L. *)
      for row = 1 to n - 1 do
        let s = ref (Array.unsafe_get y row) in
        for k = Array.unsafe_get ptr row to Array.unsafe_get ptr (row + 1) - 1 do
          s :=
            !s
            -. (Array.unsafe_get vals (o + k)
               *. Array.unsafe_get y (Array.unsafe_get cols k))
        done;
        Array.unsafe_set y row !s
      done;
      (* Back substitution with U. *)
      let diag = o + Array.unsafe_get ptr (2 * n) in
      for row = n - 1 downto 0 do
        let s = ref (Array.unsafe_get y row) in
        for k = Array.unsafe_get ptr (n + row) to Array.unsafe_get ptr (n + row + 1) - 1 do
          s :=
            !s
            -. (Array.unsafe_get vals (o + k)
               *. Array.unsafe_get y (Array.unsafe_get cols k))
        done;
        let v = !s /. Array.unsafe_get vals (diag + row) in
        Array.unsafe_set y row v;
        if keep then Array.unsafe_set x (base + row) v
      done;
      c_times cy n (snd (Array.unsafe_get jacs p)) y base
    done
  done;
  x

(* out_p += c · (C_q y_q), with q's block [off] floats from p's.
   Inlined, so [c] is never boxed. *)
let[@inline] add_product (out : Linalg.Vec.t) base (cy : Linalg.Vec.t) n c off =
  let qb = base + off in
  for row = 0 to n - 1 do
    Array.unsafe_set out (base + row)
      (Array.unsafe_get out (base + row) +. (c *. Array.unsafe_get cy (qb + row)))
  done

(* J·M⁻¹v = M·y + R·y = v + R·y with y = M⁻¹v. R reads y only through
   [cy], so the result is [v] plus R's terms, in the output buffer.
   Only the points with R entries (the wraps, for a lower-triangular t1
   operator) do more than the copy of [v]. *)
let product_sweep t (v : Linalg.Vec.t) =
  let x = sweep ~keep:false t v in
  Array.blit v 0 x 0 (Array.length x);
  let sp = built t in
  let n = t.n and n1 = sp.n1 and cy = t.cy in
  let { ptr = r1_ptr; off = r1_off; coef = r1_coef } = sp.rest1 in
  let { ptr = r2_ptr; off = r2_off; coef = r2_coef } = sp.rest2 in
  for j = 0 to sp.n2 - 1 do
    let e2 = r2_ptr.(j) and e2_end = r2_ptr.(j + 1) in
    for i = 0 to n1 - 1 do
      let e1 = r1_ptr.(i) and e1_end = r1_ptr.(i + 1) in
      if e1 < e1_end || e2 < e2_end then begin
        let base = ((j * n1) + i) * n in
        for e = e1 to e1_end - 1 do
          add_product x base cy n r1_coef.(e) r1_off.(e)
        done;
        for e = e2 to e2_end - 1 do
          add_product x base cy n r2_coef.(e) r2_off.(e)
        done
      end
    done
  done;
  x

let apply_sweep t r = sweep ~keep:true t r
let apply t r = Telemetry.span_app "mpde.precond.apply" apply_sweep t r
let product t v = Telemetry.span_app "mpde.precond.apply" product_sweep t v
