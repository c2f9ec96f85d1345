(* Unboxed Float64 Bigarray kernels for the solver hot paths.

   Every loop hoists its bounds checks into one dimension test up
   front and then runs on [unsafe_get]/[unsafe_set]; the accumulation
   order of [dot]/[nrm2]/[axpy] is the plain sequential order of
   {!Vec}, so results are bitwise identical to the [float array]
   reference implementations. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : vec =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill v 0.0;
  v

let dim (v : vec) = Bigarray.Array1.dim v
let set (v : vec) i x = Bigarray.Array1.set v i x
let fill (v : vec) x = Bigarray.Array1.fill v x

let check_same_dim (x : vec) (y : vec) =
  if Bigarray.Array1.dim x <> Bigarray.Array1.dim y then
    invalid_arg "Kernel: dimension mismatch"

let blit (x : vec) (y : vec) =
  check_same_dim x y;
  Bigarray.Array1.blit x y

let of_array (a : float array) : vec =
  let n = Array.length a in
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (Array.unsafe_get a i)
  done;
  v

let blit_to_array (v : vec) (a : float array) =
  let n = Array.length a in
  if Bigarray.Array1.dim v <> n then invalid_arg "Kernel.blit_to_array: dimension mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Bigarray.Array1.unsafe_get v i)
  done

let to_array (v : vec) =
  let a = Array.create_float (Bigarray.Array1.dim v) in
  blit_to_array v a;
  a

let blit_from_array (a : float array) (v : vec) =
  let n = Array.length a in
  if Bigarray.Array1.dim v <> n then
    invalid_arg "Kernel.blit_from_array: dimension mismatch";
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (Array.unsafe_get a i)
  done

let dot (x : vec) (y : vec) =
  check_same_dim x y;
  let n = Bigarray.Array1.dim x in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. (Bigarray.Array1.unsafe_get x i *. Bigarray.Array1.unsafe_get y i)
  done;
  !s

let nrm2 x = sqrt (dot x x)

(* The per-step loops below run two elements per iteration; each
   element gets the same operations as in a one-element loop, so the
   unrolling changes no bit. *)
let axpy a (x : vec) (y : vec) =
  check_same_dim x y;
  let n = Bigarray.Array1.dim x in
  for k = 0 to (n / 2) - 1 do
    let i = 2 * k in
    let y0 = Bigarray.Array1.unsafe_get y i +. (a *. Bigarray.Array1.unsafe_get x i) in
    let y1 =
      Bigarray.Array1.unsafe_get y (i + 1) +. (a *. Bigarray.Array1.unsafe_get x (i + 1))
    in
    Bigarray.Array1.unsafe_set y i y0;
    Bigarray.Array1.unsafe_set y (i + 1) y1
  done;
  if n land 1 = 1 then
    Bigarray.Array1.unsafe_set y (n - 1)
      (Bigarray.Array1.unsafe_get y (n - 1) +. (a *. Bigarray.Array1.unsafe_get x (n - 1)))

(* Modified Gram-Schmidt's step: the update and the next projection
   (or, with [z == y], the squared norm) in one read of [y]. The
   updated element stays in a register for the product instead of
   being reloaded; [z] is read after [y]'s element is written, so
   [z == y] sees the update. The sum runs left to right, as [dot]'s. *)
let axpy_dot a (x : vec) (y : vec) (z : vec) =
  check_same_dim x y;
  check_same_dim z y;
  let n = Bigarray.Array1.dim x in
  let s = ref 0.0 in
  for k = 0 to (n / 2) - 1 do
    let i = 2 * k in
    let y0 = Bigarray.Array1.unsafe_get y i +. (a *. Bigarray.Array1.unsafe_get x i) in
    Bigarray.Array1.unsafe_set y i y0;
    let y1 =
      Bigarray.Array1.unsafe_get y (i + 1) +. (a *. Bigarray.Array1.unsafe_get x (i + 1))
    in
    Bigarray.Array1.unsafe_set y (i + 1) y1;
    s :=
      !s
      +. (Bigarray.Array1.unsafe_get z i *. y0)
      +. (Bigarray.Array1.unsafe_get z (i + 1) *. y1)
  done;
  if n land 1 = 1 then begin
    let i = n - 1 in
    let y0 = Bigarray.Array1.unsafe_get y i +. (a *. Bigarray.Array1.unsafe_get x i) in
    Bigarray.Array1.unsafe_set y i y0;
    s := !s +. (Bigarray.Array1.unsafe_get z i *. y0)
  end;
  !s

let scale_into a (x : vec) (y : vec) =
  check_same_dim x y;
  let n = Bigarray.Array1.dim x in
  for k = 0 to (n / 2) - 1 do
    let i = 2 * k in
    let y0 = a *. Bigarray.Array1.unsafe_get x i
    and y1 = a *. Bigarray.Array1.unsafe_get x (i + 1) in
    Bigarray.Array1.unsafe_set y i y0;
    Bigarray.Array1.unsafe_set y (i + 1) y1
  done;
  if n land 1 = 1 then
    Bigarray.Array1.unsafe_set y (n - 1) (a *. Bigarray.Array1.unsafe_get x (n - 1))

(* y = a − b, elementwise (the GMRES residual update). *)
let sub_into (a : vec) (b : vec) (y : vec) =
  check_same_dim a y;
  check_same_dim b y;
  let n = Bigarray.Array1.dim y in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set y i
      (Bigarray.Array1.unsafe_get a i -. Bigarray.Array1.unsafe_get b i)
  done

let add_ip (x : vec) (y : vec) =
  check_same_dim x y;
  let n = Bigarray.Array1.dim x in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set x i
      (Bigarray.Array1.unsafe_get x i +. Bigarray.Array1.unsafe_get y i)
  done

(* CSR sparse matrix-vector product y = A x with the index arrays
   handed in raw. One validation pass over [row_ptr]'s extremes and the
   vector dimensions replaces the per-element bounds checks. *)
let spmv ~rows ~(row_ptr : int array) ~(col_idx : int array)
    ~(values : float array) (x : vec) (y : vec) =
  if
    Array.length row_ptr < rows + 1
    || Bigarray.Array1.dim y < rows
    || Array.length col_idx < row_ptr.(rows)
    || Array.length values < row_ptr.(rows)
  then invalid_arg "Kernel.spmv: shape mismatch";
  let cols = Bigarray.Array1.dim x in
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
        !s
        +. Array.unsafe_get values k
           *. Bigarray.Array1.unsafe_get x (Array.unsafe_get col_idx k)
    done;
    Bigarray.Array1.unsafe_set y i !s
  done
