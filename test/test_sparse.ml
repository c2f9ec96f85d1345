(* Unit and property tests for the sparse-matrix substrate. *)

module Vec = Linalg.Vec
module Kernel = Linalg.Kernel
module Mat = Linalg.Mat
module Coo = Sparse.Coo
module Csr = Sparse.Csr

let check_float = Alcotest.(check (float 1e-9))

(* [‖b − a·x‖₂] *)
let residual_norm a x b = Kernel.nrm2 (Vec.sub b (Csr.mul_vec a x))

(* The triplets a builder holds, duplicates counted separately. *)
let triplets m =
  let n = ref 0 in
  Coo.iter (fun _ _ _ -> incr n) m;
  !n

(* The transpose [Csr.transpose_map] describes, with [m]'s values. *)
let transpose (m : Csr.t) =
  let row_ptr, col_idx, src = Csr.transpose_map m in
  { Csr.rows = m.cols; cols = m.rows; row_ptr; col_idx; values = Array.map (fun k -> m.values.(k)) src }

(* ---------- Coo ---------- *)

let test_coo_basic () =
  let m = Coo.create 3 3 in
  Coo.add m 0 0 1.0;
  Coo.add m 2 1 4.0;
  Coo.add m 0 0 2.0;
  Alcotest.(check int) "nnz triplets" 3 (triplets m);
  Coo.add m 1 1 0.0;
  Alcotest.(check int) "zeros skipped" 3 (triplets m)

let test_coo_bounds () =
  let m = Coo.create 2 2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Coo.add: index out of range")
    (fun () -> Coo.add m 2 0 1.0)

let test_coo_grows () =
  let m = Coo.create ~capacity:2 4 4 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      Coo.add m i j (float_of_int ((i * 4) + j + 1))
    done
  done;
  Alcotest.(check int) "grown" 16 (triplets m)

(* ---------- Csr ---------- *)

let test_csr_of_coo_sums_duplicates () =
  let m = Coo.of_triplets 2 2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 0, 5.0) ] in
  let c = Csr.of_coo m in
  check_float "summed" 3.0 (Csr.get c 0 0);
  check_float "single" 5.0 (Csr.get c 1 0);
  check_float "absent" 0.0 (Csr.get c 0 1);
  Alcotest.(check int) "nnz merged" 2 (Csr.nnz c)

let test_csr_sorted_columns () =
  let m = Coo.of_triplets 1 5 [ (0, 4, 4.0); (0, 1, 1.0); (0, 3, 3.0) ] in
  let c = Csr.of_coo m in
  Alcotest.(check (array int)) "sorted" [| 1; 3; 4 |] c.Csr.col_idx

let test_csr_mul_vec () =
  let c = Csr.of_coo (Coo.of_triplets 2 3 [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 3.0) ]) in
  let y = Csr.mul_vec c [| 1.0; 2.0; 3.0 |] in
  check_float "y0" 7.0 y.(0);
  check_float "y1" 6.0 y.(1)

let test_csr_tmul_vec () =
  let c = Csr.of_coo (Coo.of_triplets 2 2 [ (0, 1, 2.0); (1, 0, 3.0) ]) in
  let y = Csr.tmul_vec c [| 1.0; 1.0 |] in
  check_float "y0" 3.0 y.(0);
  check_float "y1" 2.0 y.(1)

let test_csr_transpose_dense_roundtrip () =
  let d = Mat.of_arrays [| [| 1.0; 0.0; 2.0 |]; [| 0.0; 3.0; 0.0 |] |] in
  let c = Support.csr_of_dense d in
  Alcotest.(check bool) "roundtrip" true (Support.mat_approx_equal d (Support.csr_to_dense c));
  let t = transpose c in
  Alcotest.(check bool) "transpose" true
    (Support.mat_approx_equal (Mat.init 3 2 (fun i j -> Mat.get d j i)) (Support.csr_to_dense t))

let test_csr_diag_identity () =
  let i5 = Csr.identity 5 in
  Alcotest.(check int) "nnz" 5 (Csr.nnz i5);
  check_float "diag" 1.0 (Csr.diag i5).(3)

let test_csr_add_scale () =
  let a = Csr.of_coo (Coo.of_triplets 2 2 [ (0, 0, 1.0) ]) in
  let b = Csr.of_coo (Coo.of_triplets 2 2 [ (0, 0, 2.0); (1, 1, 4.0) ]) in
  let s = Csr.add a (Csr.scale 0.5 b) in
  check_float "sum" 2.0 (Csr.get s 0 0);
  check_float "other" 2.0 (Csr.get s 1 1)

let test_csr_empty_rows () =
  let c = Csr.of_coo (Coo.of_triplets 4 4 [ (3, 3, 1.0) ]) in
  let y = Csr.mul_vec c [| 1.0; 1.0; 1.0; 1.0 |] in
  check_float "empty row" 0.0 y.(1);
  check_float "last" 1.0 y.(3)

(* ---------- Splu ---------- *)

let laplacian_1d n =
  let coo = Coo.create n n in
  for i = 0 to n - 1 do
    Coo.add coo i i 2.0;
    if i > 0 then Coo.add coo i (i - 1) (-1.0);
    if i < n - 1 then Coo.add coo i (i + 1) (-1.0)
  done;
  Csr.of_coo coo

let test_splu_tridiagonal () =
  let a = laplacian_1d 10 in
  let b = Array.make 10 1.0 in
  let x = Sparse.Splu.solve (Sparse.Splu.factor a) b in
  check_float "residual" 0.0 (residual_norm a x b)

let test_splu_vs_dense () =
  let coo = Coo.create 6 6 in
  let entries =
    [ (0,0,4.);(0,2,1.);(1,1,5.);(1,3,-2.);(2,0,1.);(2,2,6.);(3,1,-2.);(3,3,7.);
      (4,4,3.);(4,5,1.);(5,4,1.);(5,5,2.);(0,5,0.5);(5,0,0.5) ]
  in
  List.iter (fun (i, j, v) -> Coo.add coo i j v) entries;
  let a = Csr.of_coo coo in
  let b = Array.init 6 (fun i -> float_of_int (i + 1)) in
  let x_sparse = Sparse.Splu.solve (Sparse.Splu.factor a) b in
  let x_dense = Linalg.Lu.solve_dense (Support.csr_to_dense a) b in
  Alcotest.(check bool) "agree" true (Support.vec_approx_equal ~tol:1e-10 x_sparse x_dense)

let test_splu_permutation_needed () =
  (* Structurally requires row exchanges: zero diagonal. *)
  let a = Csr.of_coo (Coo.of_triplets 3 3
    [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 3.0) ]) in
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = Sparse.Splu.solve (Sparse.Splu.factor a) b in
  check_float "residual" 0.0 (residual_norm a x b)

let test_splu_singular () =
  let a = Csr.of_coo (Coo.of_triplets 2 2 [ (0, 0, 1.0); (1, 0, 1.0) ]) in
  match Sparse.Splu.factor a with
  | exception Sparse.Splu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_splu_pivot_threshold () =
  (* A small diagonal with threshold 1.0 must be abandoned for the
     larger off-diagonal candidate; the solve must stay accurate. *)
  let a = Csr.of_coo (Coo.of_triplets 2 2
    [ (0, 0, 1e-14); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 1.0) ]) in
  let b = [| 1.0; 2.0 |] in
  let x = Sparse.Splu.solve (Sparse.Splu.factor ~pivot_threshold:1.0 a) b in
  Alcotest.(check bool) "accurate" true (residual_norm a x b < 1e-9)

let test_splu_nnz_reported () =
  (* A factor reports its fill as the [splu.lu_nnz] gauge: nnz L + nnz U,
     each holding at least the diagonal. *)
  Telemetry.enable ();
  let snap =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        ignore (Sparse.Splu.factor (laplacian_1d 8));
        Telemetry.snapshot ())
  in
  match snap with
  | None -> Alcotest.fail "no telemetry snapshot"
  | Some s -> (
      match List.assoc_opt "splu.lu_nnz" s.Telemetry.gauges with
      | Some fill -> Alcotest.(check bool) "L + U fill" true (fill >= 16.0)
      | None -> Alcotest.fail "no splu.lu_nnz gauge")

let test_splu_refactor_or_factor () =
  let a =
    Csr.of_coo (Coo.of_triplets 2 2 [ (0, 0, 2.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 1.0) ])
  in
  let b = [| 1.0; 2.0 |] in
  let solves f = residual_norm a (Sparse.Splu.solve f b) b < 1e-12 in
  let f = Sparse.Splu.refactor_or_factor None a in
  Alcotest.(check bool) "fresh factor solves" true (solves f);
  (* New values on the same pattern: replayed in place. *)
  a.Csr.values.(0) <- 3.0;
  let f' = Sparse.Splu.refactor_or_factor (Some f) a in
  Alcotest.(check bool) "replayed in place" true (f' == f);
  Alcotest.(check bool) "replay solves" true (solves f');
  (* A zero on the frozen pivot: the replay raises Singular inside, and
     a fresh factor pivots on the other row. *)
  a.Csr.values.(0) <- 0.0;
  let f'' = Sparse.Splu.refactor_or_factor (Some f') a in
  Alcotest.(check bool) "fell back to a fresh factor" true (f'' != f');
  Alcotest.(check bool) "fallback solves" true (solves f'')

(* ---------- spmv ---------- *)

let float_array_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

(* Minor-heap words allocated by [f ()]: deterministic for a fixed code
   path. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_splu_no_allocation () =
  (* An unsymmetric matrix that needs pivoting and fills in. *)
  let n = 12 in
  let coo = Coo.create n n in
  for i = 0 to n - 1 do
    Coo.add coo i i (if i mod 3 = 0 then 1e-3 else 4.0);
    Coo.add coo i ((i + 1) mod n) 1.0;
    Coo.add coo ((i + 5) mod n) i (-2.0)
  done;
  let a = Csr.of_coo coo in
  let f = Sparse.Splu.factor a in
  let b = Array.init n (fun i -> float_of_int (i + 1)) in
  let x_fresh = Sparse.Splu.solve f b in
  let prev = Some f in
  let out = Array.make n 0.0 in
  Alcotest.(check (float 0.0)) "refactor allocates nothing" 0.0
    (minor_words (fun () -> ignore (Sparse.Splu.refactor_or_factor prev a)));
  Alcotest.(check (float 0.0)) "solve_into allocates nothing" 0.0
    (minor_words (fun () -> Sparse.Splu.solve_into f b out));
  Alcotest.(check bool) "refactor of the same values is bitwise the factor" true
    (float_array_bits_equal x_fresh out);
  (* A second pass on changed values, then in place over [b]. *)
  Array.iteri (fun k v -> a.Csr.values.(k) <- 1.5 *. v) a.Csr.values;
  Alcotest.(check (float 0.0)) "changed-value refactor allocates nothing" 0.0
    (minor_words (fun () -> ignore (Sparse.Splu.refactor_or_factor prev a)));
  let expected = Sparse.Splu.solve (Sparse.Splu.factor a) b in
  Sparse.Splu.solve_into f b b;
  Alcotest.(check bool) "solves the changed matrix" true
    (Kernel.nrm2 (Linalg.Vec.sub expected b) <= 1e-12 *. Kernel.nrm2 expected)

let test_csr_mul_vec_ba_bitwise () =
  (* The unchecked spmv kernel promises the per-row accumulation order
     of the plain loop, so results match bitwise; the benchmark's old
     name for it is the same function. *)
  let a = laplacian_1d 25 in
  let x = Array.init 25 (fun i -> sin (float_of_int (i * i))) in
  let y = Array.make 25 0.0 and y_ba = Array.make 25 0.0 in
  Csr.mul_vec_into a x y;
  Csr.mul_vec_ba_into a x y_ba;
  Alcotest.(check bool) "bitwise" true (float_array_bits_equal (Support.ref_spmv a x) y);
  Alcotest.(check bool) "alias bitwise" true (float_array_bits_equal y y_ba)

let test_csr_mul_vec_ba_validates () =
  let a = laplacian_1d 4 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Csr.mul_vec_into: dimension mismatch") (fun () ->
      Csr.mul_vec_into a (Array.make 5 0.0) (Array.make 4 0.0))

(* ---------- Krylov ---------- *)

let csr_operator a =
  let y = Array.make a.Csr.rows 0.0 in
  fun x ->
    Csr.mul_vec_into a x y;
    y

let splu_precond a =
  let f = Sparse.Splu.factor a and y = Array.make a.Csr.rows 0.0 in
  fun r ->
    Sparse.Splu.solve_into f r y;
    y

let test_gmres_identity () =
  let b = [| 1.0; 2.0; 3.0 |] in
  let y = Array.make 3 0.0 in
  let r =
    Sparse.Krylov.gmres
      (fun v ->
        Array.blit v 0 y 0 3;
        y)
      b
  in
  Alcotest.(check bool) "converged" true r.Sparse.Krylov.converged;
  Alcotest.(check bool) "exact" true (Support.vec_approx_equal ~tol:1e-8 b r.Sparse.Krylov.x)

let test_gmres_spd () =
  let a = laplacian_1d 30 in
  let b = Array.init 30 (fun i -> cos (float_of_int i)) in
  let r = Sparse.Krylov.gmres ~tol:1e-12 (csr_operator a) b in
  Alcotest.(check bool) "converged" true r.Sparse.Krylov.converged;
  Alcotest.(check bool) "residual" true (residual_norm a r.Sparse.Krylov.x b < 1e-8)

let test_gmres_with_splu () =
  (* An exact factor makes the right-preconditioned operator the
     identity, so GMRES converges at once where the plain run cannot. *)
  let a = laplacian_1d 50 in
  let b = Array.make 50 1.0 in
  let plain = Sparse.Krylov.gmres ~tol:1e-10 (csr_operator a) b in
  let pre =
    Sparse.Krylov.gmres ~tol:1e-10 ~precond:(splu_precond a) (csr_operator a) b
  in
  Alcotest.(check bool) "both converge" true
    (plain.Sparse.Krylov.converged && pre.Sparse.Krylov.converged);
  Alcotest.(check bool) "exact preconditioner: at most 2 iterations" true
    (pre.Sparse.Krylov.iterations <= 2);
  Alcotest.(check bool) "plain run needs more" true
    (plain.Sparse.Krylov.iterations > 2);
  Alcotest.(check bool) "preconditioned residual" true
    (residual_norm a pre.Sparse.Krylov.x b < 1e-8)

let test_gmres_restart_path () =
  let a = laplacian_1d 40 in
  let b = Array.make 40 1.0 in
  (* Force multiple restarts with a tiny Krylov space. *)
  let r =
    Sparse.Krylov.gmres ~restart:5 ~max_iter:2000 ~tol:1e-10 (csr_operator a) b
  in
  Alcotest.(check bool) "converged across restarts" true r.Sparse.Krylov.converged;
  Alcotest.(check bool) "residual small" true (residual_norm a r.Sparse.Krylov.x b < 1e-6)

let test_gmres_restart_zero () =
  (* A zero-length cycle never advances the iteration count, so this
     call would spin forever; it must be rejected up front. *)
  let y = Array.make 4 0.0 in
  let twice v =
    Kernel.scale_into 2.0 v y;
    y
  in
  Alcotest.check_raises "restart 0" (Invalid_argument "Krylov.gmres: restart < 1")
    (fun () ->
      ignore (Sparse.Krylov.gmres ~restart:0 ~max_iter:50 twice (Array.make 4 1.0)))

let test_gmres_x0 () =
  let a = laplacian_1d 10 in
  let b = Array.make 10 1.0 in
  let exact = Sparse.Splu.solve (Sparse.Splu.factor a) b in
  let r = Sparse.Krylov.gmres ~x0:exact (csr_operator a) b in
  Alcotest.(check bool) "starts converged" true
    (r.Sparse.Krylov.converged && r.Sparse.Krylov.iterations = 0)

let test_gmres_zero_rhs () =
  let a = laplacian_1d 5 in
  let r = Sparse.Krylov.gmres (csr_operator a) (Array.make 5 0.0) in
  Alcotest.(check bool) "zero solution" true (Kernel.nrm2 r.Sparse.Krylov.x < 1e-12)

let test_gmres_used_workspace_bitwise () =
  (* A workspace left over from another operator's solve (a worker
     domain's retained scratch) must give bitwise the fresh-workspace
     iteration. *)
  let n = 20 in
  let a = laplacian_1d n in
  let b = Array.init n (fun i -> sin (0.7 *. float_of_int i)) in
  let coo = Coo.create n n in
  for i = 0 to n - 1 do
    Coo.add coo i i (20.0 +. (3.0 *. float_of_int i));
    if i > 0 then Coo.add coo i (i - 1) 2.5;
    if i < n - 1 then Coo.add coo i (i + 1) (-2.5)
  done;
  let other = Csr.of_coo coo in
  let ws = Sparse.Krylov.workspace ~restart:50 ~n in
  ignore (Sparse.Krylov.gmres ~tol:1e-10 ~workspace:ws (csr_operator other) b);
  let reused = Sparse.Krylov.gmres ~tol:1e-10 ~workspace:ws (csr_operator a) b in
  let fresh = Sparse.Krylov.gmres ~tol:1e-10 (csr_operator a) b in
  Alcotest.(check bool) "bitwise identical" true
    (float_array_bits_equal reused.Sparse.Krylov.x fresh.Sparse.Krylov.x);
  Alcotest.(check int) "same iterations" fresh.Sparse.Krylov.iterations
    reused.Sparse.Krylov.iterations

let test_gmres_arguments () =
  (* GMRES writes no argument but [out]. With [out] being [x0] (the
     iterate then starts in place) or [b] (copied first) it gives the
     bits of a separate [out]. A small restart forces restart
     residuals, which read [b] and the iterate. *)
  let n = 20 in
  let coo = Coo.create n n in
  for i = 0 to n - 1 do
    Coo.add coo i i 4.0;
    if i > 0 then Coo.add coo i (i - 1) (-1.5);
    if i < n - 1 then Coo.add coo i (i + 1) 0.5
  done;
  let a = Csr.of_coo coo in
  let b = Array.init n (fun i -> cos (0.3 *. float_of_int i)) in
  let x0 = Array.init n (fun i -> 0.1 *. sin (float_of_int i)) in
  let solve ?x0 ?out b =
    Sparse.Krylov.gmres ~restart:4 ~max_iter:400 ~tol:1e-10 ?x0 ?out (csr_operator a) b
  in
  let b_copy = Array.copy b and x0_copy = Array.copy x0 in
  let out = Array.make n 0.0 in
  let separate = solve ~x0 ~out b in
  Alcotest.(check bool) "converged after restarts" true
    (separate.Sparse.Krylov.converged && separate.Sparse.Krylov.restarts > 1);
  Alcotest.(check bool) "returns out" true (separate.Sparse.Krylov.x == out);
  Alcotest.(check bool) "b unchanged" true (float_array_bits_equal b b_copy);
  Alcotest.(check bool) "x0 unchanged" true (float_array_bits_equal x0 x0_copy);
  let fresh = solve ~x0 b in
  Alcotest.(check bool) "fresh out bitwise" true
    (float_array_bits_equal fresh.Sparse.Krylov.x out);
  let in_place = Array.copy x0 in
  let aliased = solve ~x0:in_place ~out:in_place b in
  Alcotest.(check bool) "out = x0 bitwise" true (float_array_bits_equal in_place out);
  Alcotest.(check int) "out = x0 iterations" separate.Sparse.Krylov.iterations
    aliased.Sparse.Krylov.iterations;
  let cold = solve ~out:(Array.make n 0.0) b in
  let rhs = Array.copy b in
  ignore (solve ~out:rhs rhs);
  Alcotest.(check bool) "out = b bitwise" true (float_array_bits_equal rhs cold.Sparse.Krylov.x);
  Alcotest.check_raises "short x0" (Invalid_argument "Krylov.gmres: x0 length differs from b")
    (fun () -> ignore (solve ~x0:(Array.make (n - 1) 0.0) b))

(* ---------- properties ---------- *)

let sparse_system_gen =
  QCheck.Gen.(
    let n = 12 in
    let triplet = triple (int_bound (n - 1)) (int_bound (n - 1)) (float_range (-2.0) 2.0) in
    pair (list_size (return 30) triplet) (array_size (return n) (float_range (-3.0) 3.0))
    |> map (fun (triplets, b) ->
           let coo = Coo.create n n in
           for i = 0 to n - 1 do
             Coo.add coo i i (8.0 +. float_of_int i)
           done;
           List.iter (fun (i, j, v) -> Coo.add coo i j v) triplets;
           (Csr.of_coo coo, b)))

let prop_splu_matches_dense =
  QCheck.Test.make ~count:80 ~name:"splu: matches dense LU" (QCheck.make sparse_system_gen)
    (fun (a, b) ->
      let xs = Sparse.Splu.solve (Sparse.Splu.factor a) b in
      let xd = Linalg.Lu.solve_dense (Support.csr_to_dense a) b in
      Kernel.nrm2 (Vec.sub xs xd) < 1e-8)

let prop_csr_spmv_matches_dense =
  QCheck.Test.make ~count:80 ~name:"csr: spmv matches dense" (QCheck.make sparse_system_gen)
    (fun (a, x) ->
      let sparse = Csr.mul_vec a x in
      let dense = Mat.mul_vec (Support.csr_to_dense a) x in
      Kernel.nrm2 (Vec.sub sparse dense) < 1e-9)

let prop_csr_transpose_involution =
  QCheck.Test.make ~count:60 ~name:"csr: transpose is an involution"
    (QCheck.make sparse_system_gen)
    (fun (a, _) ->
      Support.mat_approx_equal (Support.csr_to_dense a) (Support.csr_to_dense (transpose (transpose a))))

let prop_gmres_solves =
  QCheck.Test.make ~count:40 ~name:"gmres: residual contract honoured"
    (QCheck.make sparse_system_gen)
    (fun (a, b) ->
      let r = Sparse.Krylov.gmres ~tol:1e-10 (csr_operator a) b in
      (not r.Sparse.Krylov.converged)
      || residual_norm a r.Sparse.Krylov.x b <= 1e-8 *. Float.max 1.0 (Kernel.nrm2 b))

let () =
  Alcotest.run "sparse"
    [
      ( "coo",
        [
          Alcotest.test_case "add/count" `Quick test_coo_basic;
          Alcotest.test_case "bounds" `Quick test_coo_bounds;
          Alcotest.test_case "growth" `Quick test_coo_grows;
        ] );
      ( "csr",
        [
          Alcotest.test_case "duplicate summing" `Quick test_csr_of_coo_sums_duplicates;
          Alcotest.test_case "sorted columns" `Quick test_csr_sorted_columns;
          Alcotest.test_case "mul_vec" `Quick test_csr_mul_vec;
          Alcotest.test_case "tmul_vec" `Quick test_csr_tmul_vec;
          Alcotest.test_case "transpose/dense roundtrip" `Quick test_csr_transpose_dense_roundtrip;
          Alcotest.test_case "diag/identity" `Quick test_csr_diag_identity;
          Alcotest.test_case "add/scale" `Quick test_csr_add_scale;
          Alcotest.test_case "empty rows" `Quick test_csr_empty_rows;
        ] );
      ( "splu",
        [
          Alcotest.test_case "tridiagonal" `Quick test_splu_tridiagonal;
          Alcotest.test_case "vs dense" `Quick test_splu_vs_dense;
          Alcotest.test_case "needs permutation" `Quick test_splu_permutation_needed;
          Alcotest.test_case "singular detection" `Quick test_splu_singular;
          Alcotest.test_case "pivot threshold" `Quick test_splu_pivot_threshold;
          Alcotest.test_case "fill reporting" `Quick test_splu_nnz_reported;
          Alcotest.test_case "refactor or factor" `Quick test_splu_refactor_or_factor;
          Alcotest.test_case "no allocation after factor" `Quick test_splu_no_allocation;
        ] );
      ( "krylov",
        [
          Alcotest.test_case "gmres identity" `Quick test_gmres_identity;
          Alcotest.test_case "gmres spd" `Quick test_gmres_spd;
          Alcotest.test_case "gmres + splu" `Quick test_gmres_with_splu;
          Alcotest.test_case "gmres restarts" `Quick test_gmres_restart_path;
          Alcotest.test_case "gmres restart 0 rejected" `Quick test_gmres_restart_zero;
          Alcotest.test_case "gmres warm start" `Quick test_gmres_x0;
          Alcotest.test_case "gmres zero rhs" `Quick test_gmres_zero_rhs;
          Alcotest.test_case "csr ba spmv bitwise" `Quick
            test_csr_mul_vec_ba_bitwise;
          Alcotest.test_case "csr ba spmv validates" `Quick
            test_csr_mul_vec_ba_validates;
          Alcotest.test_case "gmres used workspace bitwise" `Quick
            test_gmres_used_workspace_bitwise;
          Alcotest.test_case "gmres arguments" `Quick test_gmres_arguments;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_splu_matches_dense;
            prop_csr_spmv_matches_dense;
            prop_csr_transpose_involution;
            prop_gmres_solves;
          ] );
    ]
