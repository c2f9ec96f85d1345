(* Unit and property tests for the dense linear-algebra substrate. *)

module Vec = Linalg.Vec
module Kernel = Linalg.Kernel
module Mat = Linalg.Mat
module Lu = Linalg.Lu

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Vec ---------- *)

let test_vec_create () =
  (* The allocating operations return fresh vectors of their input's
     dimension and leave the input alone. *)
  let v = [| 1.0; -2.0; 3.0 |] in
  List.iter
    (fun (name, w) ->
      Alcotest.(check int) (name ^ " dim") 3 (Vec.dim w);
      Alcotest.(check bool) (name ^ " fresh") true (w != v))
    [ ("sub", Vec.sub v v); ("scale", Vec.scale 2.0 v); ("neg", Vec.neg v) ];
  check_float "neg" 2.0 (Vec.neg v).(1);
  check_float "input intact" (-2.0) v.(1)

let test_vec_add_sub () =
  let a = [| 1.0; 2.0 |] and b = [| 3.0; 5.0 |] in
  check_float "sub" (-2.0) (Vec.sub a b).(0);
  Kernel.add_ip a b;
  check_float "add_ip" 7.0 a.(1)

let test_vec_dot_norms () =
  let v = [| 3.0; 4.0 |] in
  check_float "dot" 25.0 (Kernel.dot v v);
  check_float "norm2" 5.0 (Kernel.nrm2 v);
  check_float "norm_inf" 4.0 (Vec.norm_inf v)

let test_vec_axpy () =
  let x = [| 1.0; 1.0 |] and y = [| 2.0; 0.0 |] in
  Kernel.axpy 3.0 x y;
  check_float "axpy" 5.0 y.(0);
  check_float "axpy" 3.0 y.(1)

let test_vec_mismatch () =
  let a = Array.make 2 0.0 and b = Array.make 3 0.0 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec: dimension mismatch") (fun () ->
      ignore (Vec.sub a b));
  Alcotest.check_raises "kernel mismatch" (Invalid_argument "Kernel: dimension mismatch")
    (fun () -> ignore (Kernel.dot a b))

let test_vec_mean () =
  check_float "mean" 2.0 (Vec.mean [| 1.0; 2.0; 3.0 |]);
  check_float "mean empty" 0.0 (Vec.mean [||])

let test_vec_inplace () =
  let x = [| 2.0; 4.0 |] in
  Kernel.add_ip x [| 1.0; 1.0 |];
  check_float "add_ip" 3.0 x.(0)

(* ---------- Mat ---------- *)

let test_mat_identity () =
  let m = Mat.identity 3 in
  check_float "diag" 1.0 (Mat.get m 1 1);
  check_float "off" 0.0 (Mat.get m 0 2)

let test_mat_of_arrays () =
  let m = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "entry" 3.0 (Mat.get m 1 0);
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows")
    (fun () -> ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_mat_mul_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Mat.mul_vec a [| 1.0; 1.0 |] in
  check_float "y0" 3.0 y.(0);
  check_float "y1" 7.0 y.(1)

let test_mat_tmul_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Mat.tmul_vec a [| 1.0; 1.0 |] in
  check_float "y0" 4.0 y.(0);
  check_float "y1" 6.0 y.(1)

let test_mat_transpose () =
  (* [tmul_vec] on a non-square matrix is [mul_vec] of its transpose. *)
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Mat.init 3 2 (fun i j -> Mat.get a j i) in
  let x = [| 1.0; -2.0 |] in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims t);
  Alcotest.(check bool) "aᵀx" true
    (Support.vec_approx_equal ~tol:0.0 (Mat.tmul_vec a x) (Mat.mul_vec t x))

(* ---------- Lu ---------- *)

let test_lu_solve_2x2 () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve_dense a [| 3.0; 5.0 |] in
  check_float "x0" 0.8 x.(0);
  check_float "x1" 1.4 x.(1)

let test_lu_needs_pivoting () =
  (* Zero on the first diagonal forces a row exchange. *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve_dense a [| 2.0; 3.0 |] in
  check_float "x0" 3.0 x.(0);
  check_float "x1" 2.0 x.(1)

(* The determinant the packed factors encode: the permutation's sign
   times U's diagonal. *)
let packed_det f =
  let lu, _, sign = Lu.packed f in
  let d = ref sign in
  for i = 0 to lu.Mat.rows - 1 do
    d := !d *. Mat.get lu i i
  done;
  !d

let test_lu_det () =
  let a = Mat.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  check_float "det" 6.0 (packed_det (Lu.factor a));
  let swapped = Mat.of_arrays [| [| 0.0; 3.0 |]; [| 2.0; 0.0 |] |] in
  check_float "det sign" (-6.0) (packed_det (Lu.factor swapped))

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Lu.factor a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_lu_inverse () =
  (* A panel solve against the identity's columns is the inverse. *)
  let a = Mat.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let id = Mat.identity 2 in
  let inv = Array.make 4 0.0 in
  Lu.solve_many_into (Lu.factor a) ~cols:2 id.Mat.data inv;
  for c = 0 to 1 do
    Alcotest.(check bool) "a·a⁻¹ = I" true
      (Support.vec_approx_equal ~tol:1e-12
         (Mat.mul_vec a (Array.sub inv (2 * c) 2))
         (Array.sub id.Mat.data (2 * c) 2))
  done

let test_lu_solve_mat () =
  (* A x = B for a two-column B, as one panel solve. *)
  let a = Mat.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  let b = [| 1.0; 0.0; 3.0; 8.0 |] (* columns (1, 0) and (3, 8) *) in
  let x = Array.make 4 0.0 in
  Lu.solve_many_into (Lu.factor a) ~cols:2 b x;
  check_float "x00" 0.5 x.(0);
  check_float "x10" 0.0 x.(1);
  check_float "x01" 1.5 x.(2);
  check_float "x11" 2.0 x.(3)

let test_lu_transposed () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 0.0; 3.0 |] |] in
  let b = [| 4.0; 5.0 |] in
  let x = Lu.solve_transposed (Lu.factor a) b in
  let r = Mat.tmul_vec a x in
  Alcotest.(check bool) "aᵀx=b" true (Support.vec_approx_equal ~tol:1e-12 r b)

(* ---------- blocked multi-RHS solves ---------- *)

let bits_equal name a b =
  Alcotest.(check bool) name true
    (Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
         a b)

(* Deterministic pseudo-random stream so the panel fixtures are
   reproducible without seeding the global RNG. *)
let lcg seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !s /. float_of_int 0x3FFFFFFF) -. 0.5

let test_lu_solve_many_bitwise () =
  (* A panel solve must reproduce column-by-column [solve_into] down to
     the last bit (same substitution order per column), and must leave
     columns outside [off, off+cols) untouched in both buffers. The
     panel is wider than [panel_block] = 16 to exercise the cache
     blocking. *)
  let n = 9 and total = 24 and off = 3 and cols = 19 in
  let rand = lcg 42 in
  let a =
    Mat.init n n (fun i j ->
        (10.0 *. rand ()) +. if i = j then 25.0 else 0.0)
  in
  let f = Lu.factor a in
  let b = Array.init (total * n) (fun _ -> rand ()) in
  let x = Array.make (total * n) nan in
  Lu.solve_many_into f ~off ~cols b x;
  let x_ref = Array.make (total * n) nan in
  let bc = Array.make n 0.0 and xc = Array.make n 0.0 in
  for c = off to off + cols - 1 do
    Array.blit b (c * n) bc 0 n;
    Lu.solve_into f bc xc;
    Array.blit xc 0 x_ref (c * n) n
  done;
  bits_equal "panel columns bitwise"
    (Array.sub x (off * n) (cols * n))
    (Array.sub x_ref (off * n) (cols * n));
  for c = 0 to total - 1 do
    if c < off || c >= off + cols then
      for r = 0 to n - 1 do
        if not (Float.is_nan x.((c * n) + r)) then
          Alcotest.failf "column %d outside the panel was written" c
      done
  done

let test_lu_solve_many_validates () =
  let f = Lu.factor (Mat.identity 3) in
  let b = Array.make 6 0.0 in
  Alcotest.check_raises "aliased"
    (Invalid_argument "Lu.solve_many_into: aliased panels") (fun () ->
      Lu.solve_many_into f ~cols:2 b b);
  Alcotest.check_raises "short panel"
    (Invalid_argument "Lu.solve_many_into: panel dimension mismatch")
    (fun () -> Lu.solve_many_into f ~cols:3 b (Array.make 9 0.0))

(* ---------- factor kernel vs checked reference ---------- *)

(* The checked Doolittle kernel [Lu.factor_into] replaced (Mat.get /
   Mat.set and a checked row swap), kept as the bitwise reference for
   the unchecked one. Returns the packed factors, permutation and sign,
   or the column of the failing pivot. *)
let reference_factor ?(pivot_tol = 1e-300) a =
  let lu = Mat.copy a in
  let n = lu.Mat.rows in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  match
    for k = 0 to n - 1 do
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !piv k) then piv := i
      done;
      if !piv <> k then begin
        for j = 0 to n - 1 do
          let tmp = Mat.get lu k j in
          Mat.set lu k j (Mat.get lu !piv j);
          Mat.set lu !piv j tmp
        done;
        let tmp = perm.(k) in
        perm.(k) <- perm.(!piv);
        perm.(!piv) <- tmp;
        sign := -. !sign
      end;
      let pivot = Mat.get lu k k in
      if Float.abs pivot < pivot_tol then raise (Lu.Singular k);
      for i = k + 1 to n - 1 do
        let factor = Mat.get lu i k /. pivot in
        Mat.set lu i k factor;
        if factor <> 0.0 then
          for j = k + 1 to n - 1 do
            Mat.set lu i j (Mat.get lu i j -. (factor *. Mat.get lu k j))
          done
      done
    done
  with
  | () -> Ok (lu, perm, !sign)
  | exception Lu.Singular k -> Error k

(* Does [Lu.factor] reproduce the reference bit for bit — packed
   factors, permutation, sign — or fail at the same pivot? *)
let factor_matches_reference a =
  let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let kernel = try Ok (Lu.packed (Lu.factor a)) with Lu.Singular k -> Error k in
  match (reference_factor a, kernel) with
  | Ok (lu, perm, sign), Ok (lu', perm', sign') ->
      Array.for_all2 same_bits lu.Mat.data lu'.Mat.data
      && perm = perm' && same_bits sign sign'
  | Error k, Error k' -> k = k'
  | Ok _, Error _ | Error _, Ok _ -> false

let test_lu_factor_matches_reference () =
  let rand = lcg 7 in
  (* random blocks of the preconditioner's sizes, not diagonally boosted
     so the pivot search actually swaps rows *)
  List.iter
    (fun n ->
      for trial = 0 to 4 do
        let a = Mat.init n n (fun _ _ -> rand ()) in
        if not (factor_matches_reference a) then
          Alcotest.failf "random %dx%d (trial %d) differs" n n trial
      done)
    [ 1; 2; 5; 9; 17; 33 ];
  (* pivot ties: an 8x8 Sylvester Hadamard matrix (entries ±1,
     nonsingular) ties every candidate at the first step and keeps
     producing ±2 ties, where the strict [>] keeps the first row *)
  let rec popcount k = if k = 0 then 0 else (k land 1) + popcount (k lsr 1) in
  let ties =
    Mat.init 8 8 (fun i j -> if popcount (i land j) mod 2 = 0 then 1.0 else -1.0)
  in
  Alcotest.(check bool) "pivot ties" true (factor_matches_reference ties);
  let zero_col = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 0.0; 3.0 |] |] in
  Alcotest.(check bool) "zero first column" true
    (factor_matches_reference zero_col);
  (* rank-deficient: row 1 = 2·row 0, exact in binary, so elimination
     (after two row swaps) hits an exactly zero pivot in the last
     column — both kernels must say which *)
  let singular =
    Mat.of_arrays
      [| [| 2.0; 1.0; 1.0 |]; [| 4.0; 2.0; 2.0 |]; [| 1.0; 3.0; 5.0 |] |]
  in
  (match reference_factor singular with
  | Error 2 -> ()
  | _ -> Alcotest.fail "reference did not fail at the last pivot");
  Alcotest.(check bool) "singular at the same column" true
    (factor_matches_reference singular);
  Alcotest.check_raises "non-square"
    (Invalid_argument "Lu.factor: matrix not square") (fun () ->
      ignore (Lu.factor (Mat.create 2 3)))

(* ---------- Kernels ---------- *)

let test_kernel_bitwise_vs_plain_loop () =
  (* The unrolled, unchecked kernels promise the accumulation order of
     the plain loops, so equality is bitwise, not approximate. *)
  let rand = lcg 7 in
  let n = 129 in
  let xa = Array.init n (fun _ -> 100.0 *. rand ()) in
  let ya = Array.init n (fun _ -> 100.0 *. rand ()) in
  let y = Array.copy ya in
  bits_equal "dot" [| Support.ref_dot xa ya |] [| Kernel.dot xa ya |];
  bits_equal "nrm2" [| sqrt (Support.ref_dot xa xa) |] [| Kernel.nrm2 xa |];
  let ya' = Array.copy ya in
  Support.ref_axpy 1.75 xa ya';
  Kernel.axpy 1.75 xa y;
  bits_equal "axpy" ya' y;
  Kernel.scale_into 0.3 y y;
  let ya' = Vec.scale 0.3 ya' in
  bits_equal "scale_into in place" ya' y;
  let za = Vec.sub xa ya' in
  let z = Array.make n 0.0 in
  Kernel.sub_into xa y z;
  bits_equal "sub_into" za z

(* ---------- complex ---------- *)

let test_cvec_roundtrip () =
  let v = Linalg.Cvec.of_real [| 1.0; -2.0 |] in
  check_float "real part" (-2.0) v.(1).Complex.re;
  check_float "imag part" 0.0 v.(0).Complex.im

let test_cmat_lu_solve () =
  (* a = [[1+i, 2], [0, 1+i]] couples the rows, so the solve must
     back-substitute. *)
  let i = { Complex.re = 0.0; im = 1.0 } in
  let d = Complex.add Complex.one i and two = { Complex.re = 2.0; im = 0.0 } in
  let a = Linalg.Cmat.create 2 2 in
  Linalg.Cmat.add_entry a 0 0 d;
  Linalg.Cmat.add_entry a 0 1 two;
  Linalg.Cmat.add_entry a 1 1 d;
  let b = [| Complex.one; i |] in
  let x = Linalg.Cmat.lu_solve a b in
  let r = [| Complex.add (Complex.mul d x.(0)) (Complex.mul two x.(1)); Complex.mul d x.(1) |] in
  Alcotest.(check bool) "ax=b" true (Support.cvec_approx_equal ~tol:1e-12 r b)

let test_cmat_singular () =
  let a = Linalg.Cmat.create 2 2 in
  match Linalg.Cmat.lu_solve a [| Complex.one; Complex.one |] with
  | exception Linalg.Cmat.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

(* ---------- properties ---------- *)

let random_matrix_gen n =
  QCheck.Gen.(
    array_size (return (n * n)) (float_range (-10.0) 10.0)
    |> map (fun data ->
           (* diagonally boosted to stay comfortably nonsingular *)
           Mat.init n n (fun i j ->
               data.((i * n) + j) +. if i = j then 50.0 else 0.0)))

let prop_lu_solves =
  QCheck.Test.make ~count:100 ~name:"lu: a·(a\\b) = b"
    QCheck.(
      make
        Gen.(
          pair (random_matrix_gen 5) (array_size (return 5) (float_range (-5.0) 5.0))))
    (fun (a, b) ->
      let x = Lu.solve_dense a b in
      Kernel.nrm2 (Vec.sub (Mat.mul_vec a x) b) < 1e-8)

let prop_lu_det_transpose =
  QCheck.Test.make ~count:60 ~name:"lu: det a = det aᵀ"
    (QCheck.make (random_matrix_gen 4))
    (fun a ->
      let at = Mat.init 4 4 (fun i j -> Mat.get a j i) in
      let d1 = packed_det (Lu.factor a) and d2 = packed_det (Lu.factor at) in
      Float.abs (d1 -. d2) < 1e-6 *. Float.max 1.0 (Float.abs d1))

let prop_vec_triangle =
  QCheck.Test.make ~count:200 ~name:"vec: triangle inequality"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 8) (float_range (-100.0) 100.0))
            (array_size (return 8) (float_range (-100.0) 100.0))))
    (fun (a, b) ->
      Kernel.nrm2 (Array.map2 ( +. ) a b) <= Kernel.nrm2 a +. Kernel.nrm2 b +. 1e-9)

let prop_vec_cauchy_schwarz =
  QCheck.Test.make ~count:200 ~name:"vec: |⟨a,b⟩| ≤ ‖a‖‖b‖"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 6) (float_range (-50.0) 50.0))
            (array_size (return 6) (float_range (-50.0) 50.0))))
    (fun (a, b) -> Float.abs (Kernel.dot a b) <= (Kernel.nrm2 a *. Kernel.nrm2 b) +. 1e-9)

let prop_solve_many_bitwise =
  QCheck.Test.make ~count:60 ~name:"lu: solve_many_into ≡ per-column solve_into"
    QCheck.(
      make
        Gen.(
          pair (random_matrix_gen 5)
            (array_size (return (4 * 5)) (float_range (-5.0) 5.0))))
    (fun (a, b) ->
      let n = 5 and cols = 4 in
      let f = Lu.factor a in
      let x1 = Array.make (cols * n) 0.0 in
      Lu.solve_many_into f ~cols b x1;
      let x2 = Array.make (cols * n) 0.0 in
      let bc = Array.make n 0.0 and xc = Array.make n 0.0 in
      for c = 0 to cols - 1 do
        Array.blit b (c * n) bc 0 n;
        Lu.solve_into f bc xc;
        Array.blit xc 0 x2 (c * n) n
      done;
      Array.for_all2
        (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
        x1 x2)

let prop_factor_bitwise =
  QCheck.Test.make ~count:100 ~name:"lu: factor ≡ checked reference kernel"
    QCheck.(
      make
        Gen.(
          int_range 1 12 >>= fun n ->
          array_size (return (n * n)) (float_range (-10.0) 10.0)
          |> map (fun data -> Mat.init n n (fun i j -> data.((i * n) + j)))))
    factor_matches_reference

let prop_kernel_dot_bitwise =
  QCheck.Test.make ~count:100 ~name:"kernel: dot/nrm2 bitwise vs loop"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 17) (float_range (-50.0) 50.0))
            (array_size (return 17) (float_range (-50.0) 50.0))))
    (fun (a, b) ->
      Int64.bits_of_float (Kernel.dot a b) = Int64.bits_of_float (Support.ref_dot a b)
      && Int64.bits_of_float (Kernel.nrm2 a)
         = Int64.bits_of_float (sqrt (Support.ref_dot a a)))

(* The fused Gram-Schmidt step: bitwise axpy then dot, also with the
   projection vector [z] being [y] itself (the closing norm), over
   lengths 0-40 (even and odd, for the two-element loops). [axpy] and
   [scale_into] are checked against the plain loops too. *)
let prop_kernel_axpy_dot_bitwise =
  QCheck.Test.make ~count:200 ~name:"kernel: axpy_dot bitwise = axpy then dot"
    QCheck.(
      make
        Gen.(
          int_range 0 40 >>= fun len ->
          pair (float_range (-5.0) 5.0)
            (triple
               (array_size (return len) (float_range (-50.0) 50.0))
               (array_size (return len) (float_range (-50.0) 50.0))
               (array_size (return len) (float_range (-50.0) 50.0)))))
    (fun (a, (xa, ya, za)) ->
      let bits = Int64.bits_of_float in
      let same_vec u w = Array.for_all2 (fun p q -> bits p = bits q) u w in
      let y_ref = Array.copy ya in
      Kernel.axpy a xa y_ref;
      let y_loop = Array.copy ya in
      Support.ref_axpy a xa y_loop;
      let y = Array.copy ya in
      let d = Kernel.axpy_dot a xa y za in
      let y_self = Array.copy ya in
      let d_self = Kernel.axpy_dot a xa y_self y_self in
      let scaled = Array.make (Array.length xa) 0.0 in
      Kernel.scale_into a xa scaled;
      bits d = bits (Kernel.dot za y_ref)
      && same_vec y y_ref
      && same_vec y_ref y_loop
      && bits d = bits (Support.ref_dot za y_loop)
      && bits d_self = bits (Kernel.dot y_ref y_ref)
      && same_vec y_self y_ref
      && same_vec scaled (Array.map (fun v -> a *. v) xa))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "create" `Quick test_vec_create;
          Alcotest.test_case "add/sub" `Quick test_vec_add_sub;
          Alcotest.test_case "dot/norms" `Quick test_vec_dot_norms;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "mismatch raises" `Quick test_vec_mismatch;
          Alcotest.test_case "mean" `Quick test_vec_mean;
          Alcotest.test_case "in-place ops" `Quick test_vec_inplace;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity" `Quick test_mat_identity;
          Alcotest.test_case "of_arrays" `Quick test_mat_of_arrays;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "tmul_vec" `Quick test_mat_tmul_vec;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve 2x2" `Quick test_lu_solve_2x2;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "det" `Quick test_lu_det;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "transposed solve" `Quick test_lu_transposed;
          Alcotest.test_case "solve_mat" `Quick test_lu_solve_mat;
          Alcotest.test_case "solve_many_into bitwise" `Quick
            test_lu_solve_many_bitwise;
          Alcotest.test_case "solve_many_into validates" `Quick
            test_lu_solve_many_validates;
          Alcotest.test_case "factor bitwise vs reference" `Quick
            test_lu_factor_matches_reference;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "bitwise vs plain loop" `Quick test_kernel_bitwise_vs_plain_loop;
        ] );
      ( "complex",
        [
          Alcotest.test_case "cvec roundtrip" `Quick test_cvec_roundtrip;
          Alcotest.test_case "cmat lu solve" `Quick test_cmat_lu_solve;
          Alcotest.test_case "cmat singular" `Quick test_cmat_singular;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lu_solves;
            prop_lu_det_transpose;
            prop_solve_many_bitwise;
            prop_factor_bitwise;
            prop_kernel_dot_bitwise;
            prop_kernel_axpy_dot_bitwise;
            prop_vec_triangle;
            prop_vec_cauchy_schwarz;
          ] );
    ]
