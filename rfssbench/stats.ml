(* Order statistics over float samples. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Linear interpolation between closest ranks; nan on no samples. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    let pos = q *. float_of_int (n - 1) in
    let i = max 0 (min (n - 1) (int_of_float pos)) in
    if i = n - 1 then s.(i)
    else
      let frac = pos -. float_of_int i in
      s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* Mean of what is left after dropping the lowest and the highest
   [cut] share of the samples. *)
let trimmed_mean a cut =
  let s = sorted a in
  let k = int_of_float (cut *. float_of_int (Array.length s)) in
  mean (Array.sub s k (Array.length s - (2 * k)))

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (its default "exclusive" method), so [summarize] reproduces the
   spread rule the benchmark is accepted by. Needs two samples. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0)
