type t = { lu : Mat.t; perm : int array; sign : float }

exception Singular of int

(* Doolittle LU with partial pivoting, overwriting [lu] and writing the
   row permutation into [perm]; returns the number of row swaps (an int,
   so the in-place entry point boxes nothing). [factor] hands in a
   copy; [factor_in_place] consumes a caller-owned staging matrix and
   permutation so the per-grid-point preconditioner rebuild allocates
   nothing. The shape is validated once up front; the loops then run
   unchecked over the row-major data (the sweep preconditioner factors
   one block per grid point per Newton iterate). The arithmetic is the
   textbook order: pivot search by strict [>], whole-row swaps, and the
   update a_ij − l_ik·a_kj skipped for zero multipliers. *)
let factor_into ~pivot_tol lu perm =
  let n = lu.Mat.rows in
  let a = lu.Mat.data in
  if n <> lu.Mat.cols || Array.length a <> n * n then
    invalid_arg "Lu.factor: matrix not square";
  if Array.length perm <> n then invalid_arg "Lu.factor_in_place: permutation length";
  Telemetry.count "lu.dense_factors";
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    let kb = k * n in
    let piv = ref k in
    let best = ref (Float.abs (Array.unsafe_get a (kb + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a ((i * n) + k)) in
      if v > !best then begin
        piv := i;
        best := v
      end
    done;
    if !piv <> k then begin
      let pb = !piv * n in
      for j = 0 to n - 1 do
        let tmp = Array.unsafe_get a (kb + j) in
        Array.unsafe_set a (kb + j) (Array.unsafe_get a (pb + j));
        Array.unsafe_set a (pb + j) tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tmp;
      incr swaps
    end;
    let pivot = Array.unsafe_get a (kb + k) in
    if Float.abs pivot < pivot_tol then raise (Singular k);
    for i = k + 1 to n - 1 do
      let ib = i * n in
      let factor = Array.unsafe_get a (ib + k) /. pivot in
      Array.unsafe_set a (ib + k) factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          Array.unsafe_set a (ib + j)
            (Array.unsafe_get a (ib + j) -. (factor *. Array.unsafe_get a (kb + j)))
        done
    done
  done;
  !swaps

let default_pivot_tol = 1e-300

let factor ?(pivot_tol = default_pivot_tol) a =
  let lu = Mat.copy a in
  let perm = Array.make lu.Mat.rows 0 in
  let swaps = factor_into ~pivot_tol lu perm in
  { lu; perm; sign = (if swaps land 1 = 0 then 1.0 else -1.0) }

let factor_in_place ?(pivot_tol = default_pivot_tol) a ~perm =
  ignore (factor_into ~pivot_tol a perm : int)

let size f = f.lu.Mat.rows
let packed f = (f.lu, f.perm, f.sign)

(* Fused forward/backward substitution over one column stored at
   offset [xb] of [y]. The factor data is accessed unchecked — the
   caller validated the panel dimensions — and the arithmetic order per
   column is the canonical one every solve entry point shares, so
   single-column and panel solves are bitwise identical. *)
let substitute_column (data : float array) n (y : float array) xb =
  (* Forward substitution with unit L. *)
  for i = 1 to n - 1 do
    let ib = i * n in
    let s = ref (Array.unsafe_get y (xb + i)) in
    for j = 0 to i - 1 do
      s :=
        !s
        -. (Array.unsafe_get data (ib + j) *. Array.unsafe_get y (xb + j))
    done;
    Array.unsafe_set y (xb + i) !s
  done;
  (* Back substitution with U. *)
  for i = n - 1 downto 0 do
    let ib = i * n in
    let s = ref (Array.unsafe_get y (xb + i)) in
    for j = i + 1 to n - 1 do
      s :=
        !s
        -. (Array.unsafe_get data (ib + j) *. Array.unsafe_get y (xb + j))
    done;
    Array.unsafe_set y (xb + i) (!s /. Array.unsafe_get data (ib + i))
  done

let solve_into f b x =
  let n = size f in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Lu.solve_into: dimension mismatch";
  Telemetry.count "lu.dense_solves";
  Telemetry.count "lu.dense_solve_columns";
  (* Apply the permutation straight into [x] when it does not alias
     [b]; the scratch allocation only survives for the aliased case. *)
  let y =
    if x == b then Array.init n (fun i -> b.(f.perm.(i)))
    else begin
      for i = 0 to n - 1 do
        x.(i) <- b.(f.perm.(i))
      done;
      x
    end
  in
  substitute_column f.lu.Mat.data n y 0;
  if y != x then Array.blit y 0 x 0 n

(* Panel width processed per blocked pass: small enough that the block
   of columns and the factor both stay cache-resident during the fused
   sweeps. *)
let panel_block = 16

let solve_many_into f ?(off = 0) ~cols b x =
  let n = size f in
  if
    off < 0 || cols < 0
    || Array.length b < (off + cols) * n
    || Array.length x < (off + cols) * n
  then invalid_arg "Lu.solve_many_into: panel dimension mismatch";
  if x == b then invalid_arg "Lu.solve_many_into: aliased panels";
  Telemetry.count "lu.dense_solves";
  Telemetry.count ~by:cols "lu.dense_solve_columns";
  let data = f.lu.Mat.data and perm = f.perm in
  (* Permutation applied once over the whole panel... *)
  for c = off to off + cols - 1 do
    let xb = c * n in
    for i = 0 to n - 1 do
      Array.unsafe_set x (xb + i)
        (Array.unsafe_get b (xb + Array.unsafe_get perm i))
    done
  done;
  (* ...then fused forward/backward sweeps, blocked over columns. *)
  let c0 = ref off in
  while !c0 < off + cols do
    let c1 = min (off + cols) (!c0 + panel_block) in
    for c = !c0 to c1 - 1 do
      substitute_column data n x (c * n)
    done;
    c0 := c1
  done

let solve f b =
  let x = Array.make (size f) 0.0 in
  solve_into f b x;
  x

let solve_transposed f b =
  let n = size f in
  if Array.length b <> n then invalid_arg "Lu.solve_transposed: dimension mismatch";
  let y = Array.copy b in
  (* Solve Uᵀ z = b (forward). *)
  for i = 0 to n - 1 do
    let s = ref y.(i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.get f.lu j i *. y.(j))
    done;
    y.(i) <- !s /. Mat.get f.lu i i
  done;
  (* Solve Lᵀ w = z (backward, unit diagonal). *)
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.get f.lu j i *. y.(j))
    done;
    y.(i) <- !s
  done;
  (* Undo permutation: x.(perm i) = w i. *)
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    x.(f.perm.(i)) <- y.(i)
  done;
  x

let solve_dense a b = solve (factor a) b
