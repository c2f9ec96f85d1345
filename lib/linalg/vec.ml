type t = float array

let dim = Array.length
let check_same_dim x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vec: dimension mismatch"

let map2 f x y =
  check_same_dim x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let sub x y = map2 ( -. ) x y
let scale a x = Array.map (fun v -> a *. v) x

(* A loop, not a fold: a fold's float accumulator is boxed at every
   element, and Newton takes this norm of every residual. The test is
   [Float.max !m a] without the call: on magnitudes it keeps the larger
   one, and the latest NaN once there is one, bit for bit. *)
let norm_inf x =
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !m || Float.is_nan a then m := a
  done;
  !m

let neg x = Array.map (fun v -> -.v) x

let mean x =
  if Array.length x = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 x /. float_of_int (Array.length x)
