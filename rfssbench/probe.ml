(* Kernel probes: the two hot kernels under the MPDE Krylov solve,
   timed from outside on the workload's own converged system — the
   sparse Jacobian through Sparse.Csr.mul_vec_ba_into and a dense
   diagonal block through Linalg.Lu.solve_many_into on a panel as wide
   as the grid's widest wavefront. *)

(* Run [f] in batches of [reps] until at least [min_s] has elapsed;
   returns calls per second. *)
let rate ?(min_s = 0.02) ~reps f =
  let t0 = Harness.now () in
  let calls = ref 0 in
  while Harness.now () -. t0 < min_s do
    for _ = 1 to reps do
      f ()
    done;
    calls := !calls + reps
  done;
  float_of_int !calls /. (Harness.now () -. t0)

let kernels (sol : Mpde.Solver.solution) =
  let sys = sol.Mpde.Solver.system and grid = sol.Mpde.Solver.grid in
  let n = sys.Mpde.Assemble.size in
  let jacs = Mpde.Assemble.point_jacobians sys grid sol.Mpde.Solver.big_x in
  let jac = Mpde.Assemble.jacobian_csr Mpde.Assemble.Backward grid ~size:n ~jacs in
  let big = Mpde.Grid.points grid * n in
  let x = Linalg.Kernel.of_array (Array.init big (fun i -> sin (float_of_int i))) in
  let y = Linalg.Kernel.create big in
  let spmv = rate ~reps:10 (fun () -> Sparse.Csr.mul_vec_ba_into jac x y) in
  let spmv_mflops = 2.0 *. float_of_int (Sparse.Csr.nnz jac) *. spmv /. 1e6 in
  (* The first grid point's diagonal block, as the sweep factors it. *)
  let block = Linalg.Mat.init n n (fun i j -> Sparse.Csr.get jac i j) in
  let panel_cols_per_s =
    match Linalg.Lu.factor block with
    | exception _ -> 0.0
    | f ->
        let cols = min grid.Mpde.Grid.n1 grid.Mpde.Grid.n2 in
        let b = Array.init (cols * n) (fun i -> cos (float_of_int i)) in
        let out = Array.make (cols * n) 0.0 in
        float_of_int cols *. rate ~reps:50 (fun () -> Linalg.Lu.solve_many_into f ~cols b out)
  in
  [ ("sparse.csr.spmv_mflops", spmv_mflops); ("linalg.lu.panel_cols_per_s", panel_cols_per_s) ]
