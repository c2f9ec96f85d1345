let frac u =
  let f = Float.rem u 1.0 in
  if f < 0.0 then f +. 1.0 else f

let linear_periodic samples u =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Interp.linear_periodic: empty samples";
  let pos = frac u *. float_of_int n in
  let i = int_of_float pos mod n in
  let w = pos -. Float.of_int (int_of_float pos) in
  ((1.0 -. w) *. samples.(i)) +. (w *. samples.((i + 1) mod n))

let bilinear_periodic grid u v =
  let n1 = Array.length grid in
  if n1 = 0 then invalid_arg "Interp.bilinear_periodic: empty grid";
  let n2 = Array.length grid.(0) in
  if n2 = 0 then invalid_arg "Interp.bilinear_periodic: empty grid row";
  let pu = frac u *. float_of_int n1 and pv = frac v *. float_of_int n2 in
  let i = int_of_float pu mod n1 and j = int_of_float pv mod n2 in
  let wu = pu -. Float.of_int (int_of_float pu)
  and wv = pv -. Float.of_int (int_of_float pv) in
  let i1 = (i + 1) mod n1 and j1 = (j + 1) mod n2 in
  ((1.0 -. wu) *. (1.0 -. wv) *. grid.(i).(j))
  +. (wu *. (1.0 -. wv) *. grid.(i1).(j))
  +. ((1.0 -. wu) *. wv *. grid.(i).(j1))
  +. (wu *. wv *. grid.(i1).(j1))

let resample_periodic samples m =
  Array.init m (fun k -> linear_periodic samples (float_of_int k /. float_of_int m))
