(* Unboxed float-array kernels for the solver hot paths.

   Every loop hoists its bounds checks into one dimension test up
   front and then runs on [unsafe_get]/[unsafe_set]. With flat float
   arrays, a [float array] parameter is read and written unboxed. The
   sums run left to right in plain sequential order, and the two-per-
   iteration loops give each element the operations of a one-element
   loop, so results are those of the plain loops bit for bit. *)

(* [create] and [of_array] are kept only for rfssbench/probe.ml; both
   go when ROADMAP item 15 lands. *)
let create n = Array.make n 0.0
let of_array = Array.copy

let check_same_dim (x : float array) (y : float array) =
  if Array.length x <> Array.length y then invalid_arg "Kernel: dimension mismatch"

let dot (x : float array) (y : float array) =
  check_same_dim x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !s

let nrm2 x = sqrt (dot x x)

let axpy a (x : float array) (y : float array) =
  check_same_dim x y;
  let n = Array.length x in
  for k = 0 to (n / 2) - 1 do
    let i = 2 * k in
    let y0 = Array.unsafe_get y i +. (a *. Array.unsafe_get x i) in
    let y1 = Array.unsafe_get y (i + 1) +. (a *. Array.unsafe_get x (i + 1)) in
    Array.unsafe_set y i y0;
    Array.unsafe_set y (i + 1) y1
  done;
  if n land 1 = 1 then
    Array.unsafe_set y (n - 1) (Array.unsafe_get y (n - 1) +. (a *. Array.unsafe_get x (n - 1)))

(* Modified Gram-Schmidt's step: the update and the next projection
   (or, with [z == y], the squared norm) in one read of [y]. The
   updated element stays in a register for the product instead of
   being reloaded; [z] is read after [y]'s element is written, so
   [z == y] sees the update. The sum runs left to right, as [dot]'s. *)
let axpy_dot a (x : float array) (y : float array) (z : float array) =
  check_same_dim x y;
  check_same_dim z y;
  let n = Array.length x in
  let s = ref 0.0 in
  for k = 0 to (n / 2) - 1 do
    let i = 2 * k in
    let y0 = Array.unsafe_get y i +. (a *. Array.unsafe_get x i) in
    Array.unsafe_set y i y0;
    let y1 = Array.unsafe_get y (i + 1) +. (a *. Array.unsafe_get x (i + 1)) in
    Array.unsafe_set y (i + 1) y1;
    s := !s +. (Array.unsafe_get z i *. y0) +. (Array.unsafe_get z (i + 1) *. y1)
  done;
  if n land 1 = 1 then begin
    let i = n - 1 in
    let y0 = Array.unsafe_get y i +. (a *. Array.unsafe_get x i) in
    Array.unsafe_set y i y0;
    s := !s +. (Array.unsafe_get z i *. y0)
  end;
  !s

let scale_into a (x : float array) (y : float array) =
  check_same_dim x y;
  let n = Array.length x in
  for k = 0 to (n / 2) - 1 do
    let i = 2 * k in
    let y0 = a *. Array.unsafe_get x i and y1 = a *. Array.unsafe_get x (i + 1) in
    Array.unsafe_set y i y0;
    Array.unsafe_set y (i + 1) y1
  done;
  if n land 1 = 1 then Array.unsafe_set y (n - 1) (a *. Array.unsafe_get x (n - 1))

(* y = a − b, elementwise (the GMRES residual update). *)
let sub_into (a : float array) (b : float array) (y : float array) =
  check_same_dim a y;
  check_same_dim b y;
  for i = 0 to Array.length y - 1 do
    Array.unsafe_set y i (Array.unsafe_get a i -. Array.unsafe_get b i)
  done

let add_ip (x : float array) (y : float array) =
  check_same_dim x y;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set x i (Array.unsafe_get x i +. Array.unsafe_get y i)
  done

(* CSR sparse matrix-vector product y = A x with the index arrays
   handed in raw. One validation pass over [row_ptr]'s extremes and the
   vector dimensions replaces the per-element bounds checks. *)
let spmv ~rows ~(row_ptr : int array) ~(col_idx : int array) ~(values : float array)
    (x : float array) (y : float array) =
  if
    Array.length row_ptr < rows + 1
    || Array.length y < rows
    || Array.length col_idx < row_ptr.(rows)
    || Array.length values < row_ptr.(rows)
  then invalid_arg "Kernel.spmv: shape mismatch";
  let cols = Array.length x in
  (* Column indices are validated once so the inner loop can use
     unchecked loads of [x]. *)
  for k = 0 to row_ptr.(rows) - 1 do
    let j = Array.unsafe_get col_idx k in
    if j < 0 || j >= cols then invalid_arg "Kernel.spmv: column out of range"
  done;
  for i = 0 to rows - 1 do
    let s = ref 0.0 in
    let stop = Array.unsafe_get row_ptr (i + 1) in
    for k = Array.unsafe_get row_ptr i to stop - 1 do
      s :=
        !s +. (Array.unsafe_get values k *. Array.unsafe_get x (Array.unsafe_get col_idx k))
    done;
    Array.unsafe_set y i !s
  done
