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

let spectral_ok (g : Grid.t) = g.Grid.n1 >= 3 && g.Grid.n1 mod 2 = 1

let spectral_both_ok (g : Grid.t) =
  spectral_ok g && g.Grid.n2 >= 3 && g.Grid.n2 mod 2 = 1

let diff_matrix_t1 (g : Grid.t) =
  Numeric.Spectral.diff_matrix g.Grid.n1 (Shear.t1_period g.Grid.shear)

let diff_matrix_t2 (g : Grid.t) =
  Numeric.Spectral.diff_matrix g.Grid.n2 (Shear.t2_period g.Grid.shear)

(* Validated differentiation matrices for a (scheme, grid) pair: [None]
   for the finite-difference directions. *)
let diff_matrices scheme (g : Grid.t) =
  let diff_t1 =
    match scheme with
    | Spectral_t1 ->
        if not (spectral_ok g) then
          invalid_arg "Mpde.Assemble: Spectral_t1 needs odd n1 >= 3";
        Some (diff_matrix_t1 g)
    | Spectral_both ->
        if not (spectral_both_ok g) then
          invalid_arg "Mpde.Assemble: Spectral_both needs odd n1 and n2 >= 3";
        Some (diff_matrix_t1 g)
    | Backward | Central_t1 -> None
  in
  let diff_t2 =
    match scheme with
    | Spectral_both -> Some (diff_matrix_t2 g)
    | Backward | Central_t1 | Spectral_t1 -> None
  in
  (diff_t1, diff_t2)

let state_of ~size big_x p = Array.sub big_x (p * size) size

let sources_on_grid sys (g : Grid.t) =
  Array.init (Grid.points g) (fun p ->
      let i = p mod g.Grid.n1 and j = p / g.Grid.n1 in
      sys.source_at ~t1:(Grid.t1_of g i) ~t2:(Grid.t2_of g j))

(* Shared stencil evaluation: both the one-shot [residual] and the
   workspace path funnel through this loop so their float results are
   bitwise identical by construction. [qs] holds the per-point charges
   (distinct buffers — neighbours are read simultaneously); [get_f p]
   may return a buffer reused across calls (consumed within the
   iteration). [r] is the caller-owned output, length np*n. *)
let residual_core scheme (g : Grid.t) ~n ~(qs : Linalg.Vec.t array) ~diff_t1
    ~diff_t2 ~get_f ~sources (r : Linalg.Vec.t) =
  let np = Grid.points g in
  for p = 0 to np - 1 do
    let i = p mod g.Grid.n1 and j = p / g.Grid.n1 in
    let f = get_f p in
    let b = sources.(p) in
    let q = qs.(p) in
    let q_jm1 = qs.(Grid.point_index g i (j - 1)) in
    match scheme with
    | Backward ->
        let q_im1 = qs.(Grid.point_index g (i - 1) j) in
        for v = 0 to n - 1 do
          r.((p * n) + v) <-
            ((q.(v) -. q_im1.(v)) /. g.Grid.h1)
            +. ((q.(v) -. q_jm1.(v)) /. g.Grid.h2)
            +. f.(v) -. b.(v)
        done
    | Central_t1 ->
        let q_im1 = qs.(Grid.point_index g (i - 1) j) in
        let q_ip1 = qs.(Grid.point_index g (i + 1) j) in
        for v = 0 to n - 1 do
          r.((p * n) + v) <-
            ((q_ip1.(v) -. q_im1.(v)) /. (2.0 *. g.Grid.h1))
            +. ((q.(v) -. q_jm1.(v)) /. g.Grid.h2)
            +. f.(v) -. b.(v)
        done
    | Spectral_t1 ->
        let d = Option.get diff_t1 in
        for v = 0 to n - 1 do
          let dq = ref 0.0 in
          for l = 0 to g.Grid.n1 - 1 do
            let dil = Linalg.Mat.get d i l in
            if dil <> 0.0 then dq := !dq +. (dil *. qs.(Grid.point_index g l j).(v))
          done;
          r.((p * n) + v) <-
            !dq +. ((q.(v) -. q_jm1.(v)) /. g.Grid.h2) +. f.(v) -. b.(v)
        done
    | Spectral_both ->
        let d1 = Option.get diff_t1 and d2 = Option.get diff_t2 in
        for v = 0 to n - 1 do
          let dq = ref 0.0 in
          for l = 0 to g.Grid.n1 - 1 do
            let dil = Linalg.Mat.get d1 i l in
            if dil <> 0.0 then dq := !dq +. (dil *. qs.(Grid.point_index g l j).(v))
          done;
          for m = 0 to g.Grid.n2 - 1 do
            let djm = Linalg.Mat.get d2 j m in
            if djm <> 0.0 then dq := !dq +. (djm *. qs.(Grid.point_index g i m).(v))
          done;
          r.((p * n) + v) <- !dq +. f.(v) -. b.(v)
        done
  done

let residual scheme sys (g : Grid.t) ~sources big_x =
  Telemetry.span "mpde.assemble.residual" @@ fun () ->
  let n = sys.size in
  let np = Grid.points g in
  let qs = Array.init np (fun p -> sys.eval_q (state_of ~size:n big_x p)) in
  let diff_t1, diff_t2 = diff_matrices scheme g in
  let r = Array.make (np * n) 0.0 in
  residual_core scheme g ~n ~qs ~diff_t1 ~diff_t2
    ~get_f:(fun p -> sys.eval_f (state_of ~size:n big_x p))
    ~sources r;
  r

let point_jacobians sys (g : Grid.t) big_x =
  Telemetry.span "mpde.assemble.jacobians" @@ fun () ->
  Array.init (Grid.points g) (fun p -> sys.jacobians (state_of ~size:sys.size big_x p))

let add_block coo ~row_base ~col_base ~scale (m : Sparse.Csr.t) =
  if scale <> 0.0 then
    for i = 0 to m.Sparse.Csr.rows - 1 do
      Sparse.Csr.iter_row m i (fun j v ->
          Sparse.Coo.add coo (row_base + i) (col_base + j) (scale *. v))
    done

(* Stamp the big MPDE Jacobian into [coo]. Shared between the one-shot
   [jacobian_csr] and the workspace refresh so the triplet insertion
   order — and hence the duplicate-merge float results in the assembled
   CSR — is identical on both paths. *)
let stamp_big coo scheme (g : Grid.t) ~n ~jacs ~diff_t1 ~diff_t2 =
  let np = Grid.points g in
  for p = 0 to np - 1 do
    let i = p mod g.Grid.n1 and j = p / g.Grid.n1 in
    let gp, cp = jacs.(p) in
    let row_base = p * n in
    (* t2 coupling: backward difference except for the bi-spectral scheme *)
    (match scheme with
    | Backward | Central_t1 | Spectral_t1 ->
        let p_jm1 = Grid.point_index g i (j - 1) in
        let _, c_jm1 = jacs.(p_jm1) in
        add_block coo ~row_base ~col_base:row_base ~scale:(1.0 /. g.Grid.h2) cp;
        add_block coo ~row_base ~col_base:(p_jm1 * n) ~scale:(-1.0 /. g.Grid.h2) c_jm1
    | Spectral_both ->
        let d2 = Option.get diff_t2 in
        for m = 0 to g.Grid.n2 - 1 do
          let djm = Linalg.Mat.get d2 j m in
          if djm <> 0.0 then begin
            let pm = Grid.point_index g i m in
            let _, c_m = jacs.(pm) in
            add_block coo ~row_base ~col_base:(pm * n) ~scale:djm c_m
          end
        done);
    (* conductive part on the diagonal block *)
    add_block coo ~row_base ~col_base:row_base ~scale:1.0 gp;
    match scheme with
    | Backward ->
        let p_im1 = Grid.point_index g (i - 1) j in
        let _, c_im1 = jacs.(p_im1) in
        add_block coo ~row_base ~col_base:row_base ~scale:(1.0 /. g.Grid.h1) cp;
        add_block coo ~row_base ~col_base:(p_im1 * n) ~scale:(-1.0 /. g.Grid.h1) c_im1
    | Central_t1 ->
        let p_im1 = Grid.point_index g (i - 1) j in
        let p_ip1 = Grid.point_index g (i + 1) j in
        let _, c_im1 = jacs.(p_im1) in
        let _, c_ip1 = jacs.(p_ip1) in
        add_block coo ~row_base ~col_base:(p_ip1 * n) ~scale:(0.5 /. g.Grid.h1) c_ip1;
        add_block coo ~row_base ~col_base:(p_im1 * n) ~scale:(-0.5 /. g.Grid.h1) c_im1
    | Spectral_t1 | Spectral_both ->
        let d = Option.get diff_t1 in
        for l = 0 to g.Grid.n1 - 1 do
          let dil = Linalg.Mat.get d i l in
          if dil <> 0.0 then begin
            let pl = Grid.point_index g l j in
            let _, c_l = jacs.(pl) in
            add_block coo ~row_base ~col_base:(pl * n) ~scale:dil c_l
          end
        done
  done

let jacobian_csr scheme (g : Grid.t) ~size ~jacs =
  Telemetry.span "mpde.assemble.jacobian_csr" @@ fun () ->
  let n = size in
  let np = Grid.points g in
  let big = np * n in
  let coo = Sparse.Coo.create ~capacity:(12 * big) big big in
  let diff_t1 =
    match scheme with
    | Spectral_t1 | Spectral_both -> Some (diff_matrix_t1 g)
    | Backward | Central_t1 -> None
  in
  let diff_t2 =
    match scheme with
    | Spectral_both -> Some (diff_matrix_t2 g)
    | Backward | Central_t1 | Spectral_t1 -> None
  in
  stamp_big coo scheme g ~n ~jacs ~diff_t1 ~diff_t2;
  Sparse.Csr.of_coo coo

(* ------------------------------------------------------------------ *)
(* Workspace: symbolic-once / numeric-refresh assembly                 *)
(* ------------------------------------------------------------------ *)

type workspace = {
  ws_scheme : scheme;
  ws_sys : system;
  ws_grid : Grid.t;
  ws_n : int;
  ws_np : int;
  ws_diff_t1 : Linalg.Mat.t option;
  ws_diff_t2 : Linalg.Mat.t option;
  qs : Linalg.Vec.t array;  (* np charge buffers of length n *)
  f_buf : Linalg.Vec.t;
  x_buf : Linalg.Vec.t;  (* staging slice of the flattened iterate *)
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
  let diff_t1, diff_t2 = diff_matrices scheme g in
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
    ws_scheme = scheme;
    ws_sys = sys;
    ws_grid = g;
    ws_n = n;
    ws_np = np;
    ws_diff_t1 = diff_t1;
    ws_diff_t2 = diff_t2;
    qs = Array.init np (fun _ -> Array.make n 0.0);
    f_buf = Array.make n 0.0;
    x_buf = Array.make n 0.0;
    eval_f_into;
    eval_q_into;
    refresh_jacs;
    jacs = [||];
    big_coo = None;
    big_jac = None;
  }

(* Stage grid point [p]'s state into the workspace's slice buffer.
   Consumers must finish with the buffer before the next call. *)
let load_state ws big_x p =
  Array.blit big_x (p * ws.ws_n) ws.x_buf 0 ws.ws_n;
  ws.x_buf

let residual_ws ws ~sources big_x =
  Telemetry.span "mpde.assemble.residual" @@ fun () ->
  let n = ws.ws_n and np = ws.ws_np in
  for p = 0 to np - 1 do
    ws.eval_q_into (load_state ws big_x p) ws.qs.(p)
  done;
  (* Fresh output: Newton retains residual vectors across iterations. *)
  let r = Array.make (np * n) 0.0 in
  residual_core ws.ws_scheme ws.ws_grid ~n ~qs:ws.qs ~diff_t1:ws.ws_diff_t1
    ~diff_t2:ws.ws_diff_t2
    ~get_f:(fun p ->
      ws.eval_f_into (load_state ws big_x p) ws.f_buf;
      ws.f_buf)
    ~sources r;
  r

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
  stamp_big coo ws.ws_scheme ws.ws_grid ~n ~jacs:ws.jacs ~diff_t1:ws.ws_diff_t1
    ~diff_t2:ws.ws_diff_t2;
  match ws.big_jac with
  | Some m when Sparse.Csr.refresh_from_coo m coo ->
      Telemetry.count "mpde.assemble.numeric_refreshes";
      m
  | _ ->
      Telemetry.count "mpde.assemble.symbolic_builds";
      let m = Sparse.Csr.of_coo coo in
      ws.big_jac <- Some m;
      m
