type t = Complex.t array

let create n = Array.make n Complex.zero
let init = Array.init

let check_same_dim x y =
  if Array.length x <> Array.length y then invalid_arg "Cvec: dimension mismatch"

let of_real x = Array.map (fun re -> { Complex.re; im = 0.0 }) x
let real x = Array.map (fun (z : Complex.t) -> z.re) x
let imag x = Array.map (fun (z : Complex.t) -> z.im) x

let add x y =
  check_same_dim x y;
  Array.init (Array.length x) (fun i -> Complex.add x.(i) y.(i))

let dot x y =
  check_same_dim x y;
  let s = ref Complex.zero in
  for i = 0 to Array.length x - 1 do
    s := Complex.add !s (Complex.mul (Complex.conj x.(i)) y.(i))
  done;
  !s

let norm2 x = sqrt (dot x x).Complex.re

let norm_inf x =
  Array.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 0.0 x
