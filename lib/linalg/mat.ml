type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iter
      (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))
  end

let copy m = { m with data = Array.copy m.data }
let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let dims m = (m.rows, m.cols)
let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same_dims a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat: dimension mismatch"

let sub a b =
  check_same_dims a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let mul_vec_into a x y =
  if a.cols <> Array.length x || a.rows <> Array.length y then
    invalid_arg "Mat.mul_vec_into: dimension mismatch";
  for i = 0 to a.rows - 1 do
    let s = ref 0.0 in
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      s := !s +. (a.data.(base + j) *. x.(j))
    done;
    y.(i) <- !s
  done

let mul_vec a x =
  let y = Array.make a.rows 0.0 in
  mul_vec_into a x y;
  y

let tmul_vec a x =
  if a.rows <> Array.length x then invalid_arg "Mat.tmul_vec: dimension mismatch";
  let y = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (a.data.((i * a.cols) + j) *. xi)
      done
  done;
  y

let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)

let swap_rows m i j =
  if i <> j then
    for k = 0 to m.cols - 1 do
      let tmp = get m i k in
      set m i k (get m j k);
      set m j k tmp
    done

let frobenius_norm m =
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 m.data)

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. Float.abs (get m i j)
    done;
    if !s > !best then best := !s
  done;
  !best

let outer x y =
  init (Array.length x) (Array.length y) (fun i j -> x.(i) *. y.(j))

let trace m =
  let n = min m.rows m.cols in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. get m i i
  done;
  !s
