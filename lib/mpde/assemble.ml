type system = {
  size : int;
  eval_f : Linalg.Vec.t -> Linalg.Vec.t;
  eval_q : Linalg.Vec.t -> Linalg.Vec.t;
  jacobians : Linalg.Vec.t -> Sparse.Csr.t * Sparse.Csr.t;
  source_at : t1:float -> t2:float -> Linalg.Vec.t;
  fast : Numeric.Dae.fast option;
}

let of_mna ~shear mna =
  let dae = Circuit.Mna.dae mna in
  {
    size = Circuit.Mna.size mna;
    eval_f = dae.Numeric.Dae.eval_f;
    eval_q = dae.Numeric.Dae.eval_q;
    jacobians = dae.Numeric.Dae.jacobians;
    source_at =
      (fun ~t1 ~t2 -> Circuit.Mna.source_with mna ~phase_of:(Shear.phase shear ~t1 ~t2));
    fast = dae.Numeric.Dae.fast;
  }

let of_dae (dae : Numeric.Dae.t) =
  {
    size = dae.Numeric.Dae.size;
    eval_f = dae.Numeric.Dae.eval_f;
    eval_q = dae.Numeric.Dae.eval_q;
    jacobians = dae.Numeric.Dae.jacobians;
    source_at = (fun ~t1 ~t2:_ -> dae.Numeric.Dae.source t1);
    fast = dae.Numeric.Dae.fast;
  }

let to_dae (sys : system) ~source =
  {
    Numeric.Dae.size = sys.size;
    eval_f = sys.eval_f;
    eval_q = sys.eval_q;
    jacobians = sys.jacobians;
    source;
    fast = sys.fast;
  }

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
  Array.init (Grid.points g) (fun p ->
      let i = p mod g.Grid.n1 and j = p / g.Grid.n1 in
      sys.source_at ~t1:(Grid.t1_of g i) ~t2:(Grid.t2_of g j))

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
  Array.init (Grid.points g) (fun p -> sys.jacobians (state_of ~size:sys.size big_x p))

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
  ws_sys : system;
  ws_ops : Numeric.Collocation.operator * Numeric.Collocation.operator;
  ws_stencil : stencil;
  ws_n : int;
  ws_np : int;
  qs : Linalg.Vec.t array;  (* np charge buffers of length n *)
  f_buf : Linalg.Vec.t;
  x_buf : Linalg.Vec.t;  (* staging slice of the flattened iterate *)
  a1 : Linalg.Vec.t;  (* per-axis stencil sums of one point *)
  a2 : Linalg.Vec.t;
  eval_f_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  eval_q_into : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  refresh_jacs : (Linalg.Vec.t -> g:Sparse.Csr.t -> c:Sparse.Csr.t -> bool) option;
  mutable jacs : (Sparse.Csr.t * Sparse.Csr.t) array;  (* [||] until built *)
  mutable patterns : Sparse.Csr.t list;  (* one per distinct per-point pattern *)
  mutable big : big option;  (* lazy: matrix-free solves never stamp *)
  mutable big_stale : bool;  (* a point's pattern changed since [big]'s slots *)
}

(* The assembled big Jacobian with its value slot per [walk_big] entry
   (-1 where its pattern has none). *)
and big = { big_jac : Sparse.Csr.t; slots : int array }

let workspace scheme sys (g : Grid.t) =
  let n = sys.size in
  let np = Grid.points g in
  let ops = operators scheme g in
  let eval_f_into, eval_q_into, refresh_jacs =
    match sys.fast with
    | Some fast ->
        ( fast.Numeric.Dae.eval_f_into,
          fast.Numeric.Dae.eval_q_into,
          (* One private stamping stream per workspace: a workspace is
             single-domain by contract, so this is the single writer. *)
          Some (fast.Numeric.Dae.jacobian_refresher ()) )
    | None ->
        ( (fun x out -> Array.blit (sys.eval_f x) 0 out 0 n),
          (fun x out -> Array.blit (sys.eval_q x) 0 out 0 n),
          None )
  in
  {
    ws_sys = sys;
    ws_ops = ops;
    ws_stencil = stencil ops g;
    ws_n = n;
    ws_np = np;
    qs = Array.init np (fun _ -> Array.make n 0.0);
    f_buf = Array.make n 0.0;
    x_buf = Array.make n 0.0;
    a1 = Array.make n 0.0;
    a2 = Array.make n 0.0;
    eval_f_into;
    eval_q_into;
    refresh_jacs;
    jacs = [||];
    patterns = [];
    big = None;
    big_stale = false;
  }

let workspace_operators ws = ws.ws_ops

(* Stage grid point [p]'s state into the workspace's slice buffer.
   Consumers must finish with the buffer before the next call. *)
let load_state ws big_x p =
  Array.blit big_x (p * ws.ws_n) ws.x_buf 0 ws.ws_n;
  ws.x_buf

let residual_into ws ~sources big_x r =
  Telemetry.span "mpde.assemble.residual" @@ fun () ->
  let n = ws.ws_n and st = ws.ws_stencil and qs = ws.qs in
  for p = 0 to ws.ws_np - 1 do
    ws.eval_q_into (load_state ws big_x p) qs.(p)
  done;
  let s1 = st.t1.s and s2 = st.t2.s and a1 = ws.a1 and a2 = ws.a2 and f = ws.f_buf in
  for j = 0 to st.n2 - 1 do
    for i = 0 to st.n1 - 1 do
      let p = (j * st.n1) + i in
      ws.eval_f_into (load_state ws big_x p) f;
      accumulate st.t1 i p ~n ~qs a1;
      accumulate st.t2 j p ~n ~qs a2;
      let b = sources.(p) and base = p * n in
      for v = 0 to n - 1 do
        Array.unsafe_set r (base + v)
          ((Array.unsafe_get a1 v /. s1)
          +. (Array.unsafe_get a2 v /. s2)
          +. Array.unsafe_get f v -. Array.unsafe_get b v)
      done
    done
  done

let residual scheme sys g ~sources big_x =
  let r = Array.make (Grid.points g * sys.size) 0.0 in
  residual_into (workspace scheme sys g) ~sources big_x r;
  r

(* Structurally equal per-point patterns share one pair of pattern
   arrays, so the refresher keeps one slot map for the whole grid. *)
let intern ws (m : Sparse.Csr.t) =
  let same (r : Sparse.Csr.t) =
    r.Sparse.Csr.rows = m.Sparse.Csr.rows
    && r.Sparse.Csr.row_ptr = m.Sparse.Csr.row_ptr
    && r.Sparse.Csr.col_idx = m.Sparse.Csr.col_idx
  in
  match List.find_opt same ws.patterns with
  | Some r -> { m with Sparse.Csr.row_ptr = r.Sparse.Csr.row_ptr; col_idx = r.Sparse.Csr.col_idx }
  | None ->
      ws.patterns <- m :: ws.patterns;
      m

let build_point ws big_x p =
  let g, c = ws.ws_sys.jacobians (state_of ~size:ws.ws_n big_x p) in
  (intern ws g, intern ws c)

(* Rebuild point [p]; the big Jacobian's slots go stale only when the
   point's interned pattern changes. *)
let rebuild_point ws big_x p =
  let ((g, c) as jac) = build_point ws big_x p in
  let g0, c0 = ws.jacs.(p) in
  if g.Sparse.Csr.col_idx != g0.Sparse.Csr.col_idx || c.Sparse.Csr.col_idx != c0.Sparse.Csr.col_idx
  then ws.big_stale <- true;
  ws.jacs.(p) <- jac

(* Refresh point [p] in place; a point whose sparsity drifted at this
   iterate (a stamp crossed an exact zero) is rebuilt from scratch. *)
let refresh_point ws refresh big_x p =
  let gp, cp = ws.jacs.(p) in
  if not (refresh (load_state ws big_x p) ~g:gp ~c:cp) then begin
    Telemetry.count "mpde.assemble.jac_rebuilds";
    rebuild_point ws big_x p
  end

(* The first build: point 0 from scratch, every other point on a copy
   of point 0's interned pattern with values of its own, filled by the
   refresher. The refresher replays the stamps in [of_coo]'s summation
   order, so each point's values are bitwise a fresh build's; a point
   whose stamps leave the pattern takes [refresh_point]'s rebuild. *)
let first_jacobians ws refresh big_x =
  let ((g0, c0) as jac0) = build_point ws big_x 0 in
  let fresh (m : Sparse.Csr.t) =
    { m with Sparse.Csr.values = Array.make (Array.length m.Sparse.Csr.values) 0.0 }
  in
  ws.jacs <- Array.init ws.ws_np (fun p -> if p = 0 then jac0 else (fresh g0, fresh c0));
  for p = 1 to ws.ws_np - 1 do
    refresh_point ws refresh big_x p
  done

let point_jacobians_ws ws big_x =
  Telemetry.span "mpde.assemble.jacobians" @@ fun () ->
  let np = ws.ws_np in
  (match ws.refresh_jacs with
  | Some refresh when Array.length ws.jacs <> np -> first_jacobians ws refresh big_x
  | Some refresh ->
      for p = 0 to np - 1 do
        refresh_point ws refresh big_x p
      done
  | None when Array.length ws.jacs <> np -> ws.jacs <- Array.init np (build_point ws big_x)
  | None ->
      for p = 0 to np - 1 do
        rebuild_point ws big_x p
      done);
  ws.jacs

(* One pattern search per [walk_big] entry; done once per set of
   per-point patterns. *)
let big_slots ws (m : Sparse.Csr.t) =
  let slots = ref [] in
  walk_big ws.ws_stencil ~n:ws.ws_n ~jacs:ws.jacs (fun i j _ ->
      slots := Sparse.Csr.slot m i j :: !slots);
  ws.big_stale <- false;
  { big_jac = m; slots = Array.of_list (List.rev !slots) }

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
        let b = if ws.big_stale then big_slots ws b.big_jac else b in
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
