type t = float array

let create n = Array.make n 0.0
let init = Array.init
let dim = Array.length
let of_list = Array.of_list
let map = Array.map

let check_same_dim x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vec: dimension mismatch"

let map2 f x y =
  check_same_dim x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 ( +. ) x y
let sub x y = map2 ( -. ) x y
let scale a x = Array.map (fun v -> a *. v) x

let axpy a x y =
  check_same_dim x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let axpby a x b y =
  check_same_dim x y;
  Array.init (Array.length x) (fun i -> (a *. x.(i)) +. (b *. y.(i)))

let dot x y =
  check_same_dim x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let norm2 x = sqrt (dot x x)

(* A loop, not a fold: a fold's float accumulator is boxed at every
   element, and Newton takes this norm of every residual. *)
let norm_inf x =
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := Float.max !m (Float.abs x.(i))
  done;
  !m

let norm1 x = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 x

let dist2 x y =
  check_same_dim x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    s := !s +. (d *. d)
  done;
  sqrt !s

let scale_ip a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let add_ip x y =
  check_same_dim x y;
  for i = 0 to Array.length x - 1 do
    x.(i) <- x.(i) +. y.(i)
  done

let sub_ip x y =
  check_same_dim x y;
  for i = 0 to Array.length x - 1 do
    x.(i) <- x.(i) -. y.(i)
  done

let neg x = Array.map (fun v -> -.v) x

let max_abs_index x =
  if Array.length x = 0 then invalid_arg "Vec.max_abs_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if Float.abs x.(i) > Float.abs x.(!best) then best := i
  done;
  !best

let mean x =
  if Array.length x = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 x /. float_of_int (Array.length x)
