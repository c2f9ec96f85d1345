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

let add_block coo ~row_base ~col_base ~scale (m : Sparse.Csr.t) =
  if scale <> 0.0 then
    for i = 0 to m.Sparse.Csr.rows - 1 do
      Sparse.Csr.iter_row m i (fun j v ->
          Sparse.Coo.add coo (row_base + i) (col_base + j) (scale *. v))
    done

(* Stamp the big MPDE Jacobian into [coo]: per point, the t2 entries,
   then G, then the t1 entries, each block [(w/s)·C_q]. Shared between
   the one-shot [jacobian_csr] and the workspace refresh so the triplet
   insertion order — and hence the duplicate-merge float results in the
   assembled CSR — is identical on both paths. *)
let stamp_big coo st ~n ~jacs =
  let stamp_axis ax r p =
    let base = p - (r * ax.stride) in
    Array.iteri
      (fun e l ->
        let q = base + (l * ax.stride) in
        add_block coo ~row_base:(p * n) ~col_base:(q * n) ~scale:ax.coef.(r).(e)
          (snd jacs.(q)))
      ax.cols.(r)
  in
  for p = 0 to (st.n1 * st.n2) - 1 do
    stamp_axis st.t2 (p / st.n1) p;
    add_block coo ~row_base:(p * n) ~col_base:(p * n) ~scale:1.0 (fst jacs.(p));
    stamp_axis st.t1 (p mod st.n1) p
  done

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
  ws_t1 : Numeric.Collocation.operator;
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
  mutable big_coo : Sparse.Coo.t option;  (* lazy: direct solves never stamp *)
  mutable big_jac : Sparse.Csr.t option;
}

let workspace scheme sys (g : Grid.t) =
  let n = sys.size in
  let np = Grid.points g in
  let ((t1, _) as ops) = operators scheme g in
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
    ws_t1 = t1;
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
    big_coo = None;
    big_jac = None;
  }

let t1_operator ws = ws.ws_t1

(* Stage grid point [p]'s state into the workspace's slice buffer.
   Consumers must finish with the buffer before the next call. *)
let load_state ws big_x p =
  Array.blit big_x (p * ws.ws_n) ws.x_buf 0 ws.ws_n;
  ws.x_buf

let residual_ws ws ~sources big_x =
  Telemetry.span "mpde.assemble.residual" @@ fun () ->
  let n = ws.ws_n and st = ws.ws_stencil and qs = ws.qs in
  for p = 0 to ws.ws_np - 1 do
    ws.eval_q_into (load_state ws big_x p) qs.(p)
  done;
  (* Fresh output: Newton retains residual vectors across iterations. *)
  let r = Array.make (ws.ws_np * n) 0.0 in
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
  done;
  r

let residual scheme sys g ~sources big_x = residual_ws (workspace scheme sys g) ~sources big_x

let point_jacobians_ws ws big_x =
  Telemetry.span "mpde.assemble.jacobians" @@ fun () ->
  let np = ws.ws_np in
  if Array.length ws.jacs <> np then
    ws.jacs <-
      Array.init np (fun p ->
          ws.ws_sys.jacobians (state_of ~size:ws.ws_n big_x p))
  else begin
    match ws.refresh_jacs with
    | Some refresh ->
        for p = 0 to np - 1 do
          let gp, cp = ws.jacs.(p) in
          if not (refresh (load_state ws big_x p) ~g:gp ~c:cp) then begin
            (* Sparsity drifted at this iterate (a stamp crossed an
               exact zero): rebuild this point from scratch. *)
            Telemetry.count "mpde.assemble.jac_rebuilds";
            ws.jacs.(p) <- ws.ws_sys.jacobians (state_of ~size:ws.ws_n big_x p)
          end
        done
    | None ->
        for p = 0 to np - 1 do
          ws.jacs.(p) <- ws.ws_sys.jacobians (state_of ~size:ws.ws_n big_x p)
        done
  end;
  ws.jacs

let jacobian_ws ws =
  Telemetry.span "mpde.assemble.jacobian_csr" @@ fun () ->
  if Array.length ws.jacs = 0 then
    invalid_arg "Mpde.Assemble.jacobian_ws: call point_jacobians_ws first";
  let n = ws.ws_n and np = ws.ws_np in
  let big = np * n in
  let coo =
    match ws.big_coo with
    | Some c ->
        Sparse.Coo.clear c;
        c
    | None ->
        let c = Sparse.Coo.create ~capacity:(12 * big) big big in
        ws.big_coo <- Some c;
        c
  in
  stamp_big coo ws.ws_stencil ~n ~jacs:ws.jacs;
  match ws.big_jac with
  | Some m when Sparse.Csr.refresh_from_coo m coo ->
      Telemetry.count "mpde.assemble.numeric_refreshes";
      m
  | _ ->
      Telemetry.count "mpde.assemble.symbolic_builds";
      let m = Sparse.Csr.of_coo coo in
      ws.big_jac <- Some m;
      m

(* Pass 1 computes cw_p = C_p·v_p once per point and
   out_p = self_p·cw_p + G_p·v_p (+ extra_diag·v_p), self_p being the
   two operators' diagonals; pass 2 adds (w/s)·cw_q for every
   off-diagonal stencil entry, t1 then t2. One apply costs nnz(C) +
   nnz(G) multiplies per point plus n per stencil entry. *)
let jacobian_apply_ws ws ~extra_diag ~(cw : Linalg.Kernel.vec) (v : Linalg.Kernel.vec)
    (out : Linalg.Kernel.vec) =
  if Array.length ws.jacs = 0 then
    invalid_arg "Mpde.Assemble.jacobian_apply_ws: call point_jacobians_ws first";
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
                *. Bigarray.Array1.unsafe_get v (base + Array.unsafe_get cci k))
        done;
        Bigarray.Array1.unsafe_set cw (base + r) !s;
        let t = ref (self *. !s) in
        for k = grp.(r) to grp.(r + 1) - 1 do
          t :=
            !t
            +. (Array.unsafe_get gv k
                *. Bigarray.Array1.unsafe_get v (base + Array.unsafe_get gci k))
        done;
        Bigarray.Array1.unsafe_set out (base + r)
          (!t +. (extra_diag *. Bigarray.Array1.unsafe_get v (base + r)))
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
          Bigarray.Array1.unsafe_set out (pb + k)
            (Bigarray.Array1.unsafe_get out (pb + k)
            +. (c *. Bigarray.Array1.unsafe_get cw (qb + k)))
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
