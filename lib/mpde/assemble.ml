type system = {
  size : int;
  dae : Numeric.Dae.t;
  source_into : t1:float -> t2:float -> Linalg.Vec.t -> int -> unit;
  linear : bool;
}

let of_mna ~shear mna =
  let n = Circuit.Mna.size mna in
  let freqs = Array.of_list (Circuit.Mna.source_frequencies mna) in
  let fast, slow = Shear.scales shear freqs in
  {
    size = n;
    dae = Circuit.Mna.dae mna;
    source_into =
      (fun ~t1 ~t2 out off ->
        (* Each source frequency's sheared phase ([Shear.phase]'s
           floats, and its [Off_lattice] for a frequency off the
           lattice), in a buffer of the call's own: a system may serve
           several domains. *)
        let phases = Array.make (Array.length freqs) 0.0 in
        for k = 0 to Array.length freqs - 1 do
          let f = fast.(k) in
          if Float.is_finite f then phases.(k) <- (f *. t1) +. (slow.(k) *. t2)
          else phases.(k) <- Shear.phase shear ~t1 ~t2 freqs.(k)
        done;
        Circuit.Mna.sources_into mna ~freqs ~phases out off);
    linear = Circuit.Mna.linear mna;
  }

let of_dae (dae : Numeric.Dae.t) =
  let n = dae.Numeric.Dae.size in
  let source_into ~t1 ~t2:_ out off =
    let b = Array.make n 0.0 in
    dae.Numeric.Dae.source_into t1 b;
    Array.blit b 0 out off n
  in
  { size = n; dae; source_into; linear = false }

let source_at sys ~t1 ~t2 =
  let b = Array.make sys.size 0.0 in
  sys.source_into ~t1 ~t2 b 0;
  b

(* [Grid.t1_of]/[t2_of]'s floats at every point, formed here. *)
let sources_into sys (g : Grid.t) out =
  for j = 0 to g.Grid.n2 - 1 do
    let t2 = float_of_int j *. g.Grid.h2 in
    for i = 0 to g.Grid.n1 - 1 do
      sys.source_into ~t1:(float_of_int i *. g.Grid.h1) ~t2 out
        (((j * g.Grid.n1) + i) * sys.size)
    done
  done

let to_dae sys ~source =
  { sys.dae with Numeric.Dae.source_into = (fun t b -> Array.blit (source t) 0 b 0 sys.size) }

type scheme = Backward | Central_t1 | Spectral_t1 | Spectral_both

let operators scheme (g : Grid.t) =
  let module C = Numeric.Collocation in
  let backward points h = C.backward_difference ~points ~h in
  let spectral points period = C.of_matrix (Numeric.Spectral.diff_matrix points period) in
  let spectral_t1 () = spectral g.Grid.n1 (Shear.t1_period g.Grid.shear) in
  match scheme with
  | Backward -> (backward g.Grid.n1 g.Grid.h1, backward g.Grid.n2 g.Grid.h2)
  | Central_t1 ->
      (C.central_difference ~points:g.Grid.n1 ~h:g.Grid.h1, backward g.Grid.n2 g.Grid.h2)
  | Spectral_t1 -> (spectral_t1 (), backward g.Grid.n2 g.Grid.h2)
  | Spectral_both -> (spectral_t1 (), spectral g.Grid.n2 (Shear.t2_period g.Grid.shear))

(* One axis of the tensor-product stencil, per operator row: the points
   whose index along the axis is r share row r, whose entry l couples
   point p to point p + (l − r)·stride with weight [w] (residual) and
   coefficient [coef] = w/s (Jacobian). *)
type axis = {
  s : float;
  stride : int;
  cols : int array array;
  w : float array array;
  coef : float array array;
  self : float array;
}

type stencil = { n1 : int; n2 : int; t1 : axis; t2 : axis }

let axis (op : Numeric.Collocation.operator) ~stride =
  let s = op.Numeric.Collocation.scale and rows = op.Numeric.Collocation.weights in
  {
    s;
    stride;
    cols = Array.map (Array.map fst) rows;
    w = Array.map (Array.map snd) rows;
    coef = Array.map (Array.map (fun (_, w) -> w /. s)) rows;
    self = Numeric.Collocation.diagonal op;
  }

let stencil (op1, op2) (g : Grid.t) =
  let n1 = g.Grid.n1 in
  { n1; n2 = g.Grid.n2; t1 = axis op1 ~stride:1; t2 = axis op2 ~stride:n1 }

let state_of ~size big_x p = Array.sub big_x (p * size) size

let sources_on_grid sys (g : Grid.t) =
  let b = Array.make (Grid.points g * sys.size) 0.0 in
  sources_into sys g b;
  b

(* acc := Σ_e w_e·q(nbr_e) over point p's entries in row r of one
   axis. The sum starts from the first term, not from 0.0, so a
   two-point difference is exact: 1·q + (−1)·q' = q − q'. *)
let accumulate ax r p ~n ~(qs : Linalg.Vec.t array) (acc : Linalg.Vec.t) =
  let cols = ax.cols.(r) and w = ax.w.(r) and base = p - (r * ax.stride) in
  let q = qs.(base + (cols.(0) * ax.stride)) and we = w.(0) in
  for v = 0 to n - 1 do
    Array.unsafe_set acc v (we *. Array.unsafe_get q v)
  done;
  for e = 1 to Array.length cols - 1 do
    let q = qs.(base + (cols.(e) * ax.stride)) and we = w.(e) in
    for v = 0 to n - 1 do
      Array.unsafe_set acc v (Array.unsafe_get acc v +. (we *. Array.unsafe_get q v))
    done
  done

let point_jacobians sys (g : Grid.t) big_x =
  Telemetry.span "mpde.assemble.jacobians" @@ fun () ->
  Array.init (Grid.points g) (fun p ->
      sys.dae.Numeric.Dae.jacobians (state_of ~size:sys.size big_x p))

(* Walk the big MPDE Jacobian's entries in stamp order: per point, the
   t2 entries, then G, then the t1 entries, each block [(w/s)·C_q];
   blocks with a zero weight are skipped. [emit row col v] sees every
   entry of every block's pattern, zeros included, so the order is a
   function of the per-point patterns alone. The one-shot
   [jacobian_csr] and the workspace's build and refresh all walk it,
   so the duplicate-merge float results agree on every path. *)
let walk_big st ~n ~jacs emit =
  let block ~row_base ~col_base ~scale (m : Sparse.Csr.t) =
    if scale <> 0.0 then
      for i = 0 to m.Sparse.Csr.rows - 1 do
        Sparse.Csr.iter_row m i (fun j v -> emit (row_base + i) (col_base + j) (scale *. v))
      done
  in
  let stamp_axis ax r p =
    let base = p - (r * ax.stride) in
    Array.iteri
      (fun e l ->
        let q = base + (l * ax.stride) in
        block ~row_base:(p * n) ~col_base:(q * n) ~scale:ax.coef.(r).(e) (snd jacs.(q)))
      ax.cols.(r)
  in
  for p = 0 to (st.n1 * st.n2) - 1 do
    stamp_axis st.t2 (p / st.n1) p;
    block ~row_base:(p * n) ~col_base:(p * n) ~scale:1.0 (fst jacs.(p));
    stamp_axis st.t1 (p mod st.n1) p
  done

let stamp_big coo st ~n ~jacs = walk_big st ~n ~jacs (Sparse.Coo.add coo)

let jacobian_csr scheme (g : Grid.t) ~size ~jacs =
  Telemetry.span "mpde.assemble.jacobian_csr" @@ fun () ->
  let big = Grid.points g * size in
  let coo = Sparse.Coo.create ~capacity:(12 * big) big big in
  stamp_big coo (stencil (operators scheme g) g) ~n:size ~jacs;
  Sparse.Csr.of_coo coo

(* ------------------------------------------------------------------ *)
(* Workspace: symbolic-once / numeric-refresh assembly                 *)
(* ------------------------------------------------------------------ *)

type workspace = {
  mutable ws_sys : system;
  mutable ws_ops : Numeric.Collocation.operator * Numeric.Collocation.operator;
  mutable ws_stencil : stencil;
  ws_n : int;
  ws_np : int;
  points : Numeric.Stacked.t;  (* q, G and C per grid point *)
  a1 : Linalg.Vec.t;  (* per-axis stencil sums of one point *)
  a2 : Linalg.Vec.t;
  mutable jacs : (Sparse.Csr.t * Sparse.Csr.t) array;
      (* the last [point_jacobians_ws]'s blocks, [||] before it *)
  mutable big : big option;  (* lazy: matrix-free solves never stamp *)
}

(* The assembled big Jacobian with its value slot per [walk_big] entry
   (-1 where its pattern has none), for the per-point patterns of
   [structure]. *)
and big = { big_jac : Sparse.Csr.t; slots : int array; structure : int }

let workspace scheme sys (g : Grid.t) =
  let n = sys.size in
  let np = Grid.points g in
  let ops = operators scheme g in
  {
    ws_sys = sys;
    ws_ops = ops;
    ws_stencil = stencil ops g;
    ws_n = n;
    ws_np = np;
    points = Numeric.Stacked.create sys.dae ~points:np;
    a1 = Array.make n 0.0;
    a2 = Array.make n 0.0;
    jacs = [||];
    big = None;
  }

(* Everything bound to the old job is dropped; the per-point buffers and
   matrices of the grid's shape are kept (see [Stacked.rebind]). *)
let rebind ws scheme sys (g : Grid.t) =
  if sys.size <> ws.ws_n || Grid.points g <> ws.ws_np then workspace scheme sys g
  else begin
    let ops = operators scheme g in
    ws.ws_sys <- sys;
    ws.ws_ops <- ops;
    ws.ws_stencil <- stencil ops g;
    Numeric.Stacked.rebind ws.points sys.dae;
    ws.jacs <- [||];
    ws.big <- None;
    ws
  end

let workspace_operators ws = ws.ws_ops

(* r_p = Σ_l w1·q_l/s1 + Σ_m w2·q_m/s2 + f_p − b_p. Each axis sum
   starts from its first term, as [accumulate] does; rows of two
   entries on both axes (the backward and central differences) are
   summed inline, reading q and f where the load left them. *)
let residual_with ~jacobians ws ~sources big_x r =
  Telemetry.span "mpde.assemble.residual" @@ fun () ->
  let n = ws.ws_n and st = ws.ws_stencil in
  if Array.length r <> ws.ws_np * n || Array.length sources <> ws.ws_np * n then
    invalid_arg "Mpde.Assemble.residual: dimension mismatch";
  Numeric.Stacked.load ~jacobians ws.points big_x;
  let qs = Numeric.Stacked.charges ws.points and fs = Numeric.Stacked.forces ws.points in
  let t1 = st.t1 and t2 = st.t2 in
  let s1 = t1.s and s2 = t2.s and a1 = ws.a1 and a2 = ws.a2 in
  for j = 0 to st.n2 - 1 do
    let cols2 = t2.cols.(j) and w2 = t2.w.(j) and base2 = -j * t2.stride in
    for i = 0 to st.n1 - 1 do
      let p = (j * st.n1) + i in
      let cols1 = t1.cols.(i) and w1 = t1.w.(i) in
      let f = fs.(p) and base = p * n in
      if Array.length cols1 = 2 && Array.length cols2 = 2 then begin
        let qa = qs.(p - i + cols1.(0)) and qb = qs.(p - i + cols1.(1)) in
        let qc = qs.(p + base2 + (cols2.(0) * t2.stride))
        and qd = qs.(p + base2 + (cols2.(1) * t2.stride)) in
        let wa = w1.(0) and wb = w1.(1) and wc = w2.(0) and wd = w2.(1) in
        for v = 0 to n - 1 do
          Array.unsafe_set r (base + v)
            (((wa *. Array.unsafe_get qa v) +. (wb *. Array.unsafe_get qb v)) /. s1
            +. (((wc *. Array.unsafe_get qc v) +. (wd *. Array.unsafe_get qd v)) /. s2)
            +. Array.unsafe_get f v
            -. Array.unsafe_get sources (base + v))
        done
      end
      else begin
        accumulate t1 i p ~n ~qs a1;
        accumulate t2 j p ~n ~qs a2;
        for v = 0 to n - 1 do
          Array.unsafe_set r (base + v)
            ((Array.unsafe_get a1 v /. s1)
            +. (Array.unsafe_get a2 v /. s2)
            +. Array.unsafe_get f v
            -. Array.unsafe_get sources (base + v))
        done
      end
    done
  done

let residual_into = residual_with ~jacobians:true

(* No solve follows a one-shot residual: it loads q and f alone. *)
let residual scheme sys g ~sources big_x =
  let r = Array.make (Grid.points g * sys.size) 0.0 in
  residual_with ~jacobians:false (workspace scheme sys g) ~sources big_x r;
  r

let point_jacobians_ws ws big_x =
  Telemetry.span "mpde.assemble.jacobians" @@ fun () ->
  ws.jacs <- Numeric.Stacked.jacobians ws.points big_x;
  ws.jacs

(* One pattern search per [walk_big] entry; done once per set of
   per-point patterns. *)
let big_slots ws (m : Sparse.Csr.t) =
  let slots = ref [] in
  walk_big ws.ws_stencil ~n:ws.ws_n ~jacs:ws.jacs (fun i j _ ->
      slots := Sparse.Csr.slot m i j :: !slots);
  {
    big_jac = m;
    slots = Array.of_list (List.rev !slots);
    structure = Numeric.Stacked.structure ws.points;
  }

(* Rewrite [b.big_jac]'s values by adding each [walk_big] entry into
   its slot, in walk order: the order [of_coo] sums duplicates in.
   [false] when a nonzero entry has no slot. *)
let replay_big ws b =
  let values = b.big_jac.Sparse.Csr.values and slots = b.slots in
  Array.fill values 0 (Array.length values) 0.0;
  let pos = ref 0 and fits = ref true in
  walk_big ws.ws_stencil ~n:ws.ws_n ~jacs:ws.jacs (fun _ _ v ->
      let s = slots.(!pos) in
      incr pos;
      if s >= 0 then values.(s) <- values.(s) +. v else if v <> 0.0 then fits := false);
  !fits

let jacobian_ws ws =
  Telemetry.span "mpde.assemble.jacobian_csr" @@ fun () ->
  if Array.length ws.jacs = 0 then
    invalid_arg "Mpde.Assemble.jacobian_ws: call point_jacobians_ws first";
  let refreshed =
    match ws.big with
    | Some b ->
        let b =
          if b.structure <> Numeric.Stacked.structure ws.points then big_slots ws b.big_jac
          else b
        in
        ws.big <- Some b;
        if replay_big ws b then Some b.big_jac else None
    | None -> None
  in
  match refreshed with
  | Some m ->
      Telemetry.count "mpde.assemble.numeric_refreshes";
      m
  | None ->
      Telemetry.count "mpde.assemble.symbolic_builds";
      let big = ws.ws_np * ws.ws_n in
      let coo = Sparse.Coo.create ~capacity:(12 * big) big big in
      stamp_big coo ws.ws_stencil ~n:ws.ws_n ~jacs:ws.jacs;
      let m = Sparse.Csr.of_coo coo in
      ws.big <- Some (big_slots ws m);
      m

(* Pass 1 computes cw_p = C_p·v_p once per point and
   out_p = self_p·cw_p + G_p·v_p (+ extra_diag·v_p), self_p being the
   two operators' diagonals; pass 2 adds (w/s)·cw_q for every
   off-diagonal stencil entry, t1 then t2. One apply costs nnz(C) +
   nnz(G) multiplies per point plus n per stencil entry. *)
let jacobian_apply_ws ws ~extra_diag ~(cw : Linalg.Vec.t) (v : Linalg.Vec.t)
    (out : Linalg.Vec.t) =
  if Array.length ws.jacs = 0 then
    invalid_arg "Mpde.Assemble.jacobian_apply_ws: call point_jacobians_ws first";
  let big = ws.ws_np * ws.ws_n in
  if Array.length v <> big || Array.length out <> big || Array.length cw <> big then
    invalid_arg "Mpde.Assemble.jacobian_apply_ws: dimension mismatch";
  let n = ws.ws_n and st = ws.ws_stencil in
  for j = 0 to st.n2 - 1 do
    for i = 0 to st.n1 - 1 do
      let p = (j * st.n1) + i in
      let gp, cp = ws.jacs.(p) in
      let base = p * n in
      let self = st.t1.self.(i) +. st.t2.self.(j) in
      let crp = cp.Sparse.Csr.row_ptr
      and cci = cp.Sparse.Csr.col_idx
      and cv = cp.Sparse.Csr.values in
      let grp = gp.Sparse.Csr.row_ptr
      and gci = gp.Sparse.Csr.col_idx
      and gv = gp.Sparse.Csr.values in
      for r = 0 to n - 1 do
        let s = ref 0.0 in
        for k = crp.(r) to crp.(r + 1) - 1 do
          s :=
            !s
            +. (Array.unsafe_get cv k
                *. Array.unsafe_get v (base + Array.unsafe_get cci k))
        done;
        Array.unsafe_set cw (base + r) !s;
        let t = ref (self *. !s) in
        for k = grp.(r) to grp.(r + 1) - 1 do
          t :=
            !t
            +. (Array.unsafe_get gv k
                *. Array.unsafe_get v (base + Array.unsafe_get gci k))
        done;
        Array.unsafe_set out (base + r)
          (!t +. (extra_diag *. Array.unsafe_get v (base + r)))
      done
    done
  done;
  let couple ax r p =
    let cols = ax.cols.(r) and coef = ax.coef.(r) in
    let base = p - (r * ax.stride) and pb = p * n in
    for e = 0 to Array.length cols - 1 do
      let l = Array.unsafe_get cols e in
      if l <> r then begin
        let c = Array.unsafe_get coef e and qb = (base + (l * ax.stride)) * n in
        for k = 0 to n - 1 do
          Array.unsafe_set out (pb + k)
            (Array.unsafe_get out (pb + k)
            +. (c *. Array.unsafe_get cw (qb + k)))
        done
      end
    done
  in
  for j = 0 to st.n2 - 1 do
    for i = 0 to st.n1 - 1 do
      let p = (j * st.n1) + i in
      couple st.t1 i p;
      couple st.t2 j p
    done
  done
