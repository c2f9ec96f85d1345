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
let check_same_dims a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat: dimension mismatch"

let sub a b =
  check_same_dims a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

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
