type t = { fast : float; slow : float }

exception Off_lattice of float

let make ~fast_freq ~slow_freq =
  if not (slow_freq > 0.0 && slow_freq < fast_freq) then
    invalid_arg "Shear.make: need 0 < slow_freq < fast_freq";
  { fast = fast_freq; slow = slow_freq }

let fast_freq s = s.fast
let slow_freq s = s.slow
let t1_period s = 1.0 /. s.fast
let t2_period s = 1.0 /. s.slow

let lattice ?(tol = 1e-6) s freq =
  if freq = 0.0 then (0, 0)
  else begin
    let m = Float.round (freq /. s.fast) in
    let rest = freq -. (m *. s.fast) in
    let k = Float.round (rest /. s.slow) in
    let err = Float.abs (freq -. (m *. s.fast) -. (k *. s.slow)) in
    if err <= tol *. Float.max (Float.abs freq) s.slow then
      (int_of_float m, int_of_float k)
    else raise (Off_lattice freq)
  end

let phase s ~t1 ~t2 freq =
  let m, k = lattice s freq in
  (float_of_int m *. s.fast *. t1) +. (float_of_int k *. s.slow *. t2)

(* Each frequency's (m, k) scaled once: [phase] is
   (m·f1)·t1 + (k·fs)·t2 in the same float operations. A frequency off
   the lattice keeps [nan]. *)
let scales s freqs =
  let scaled scale f =
    match lattice s f with
    | m, k -> scale (m, k)
    | exception Off_lattice _ -> Float.nan
  in
  ( Array.map (scaled (fun (m, _) -> float_of_int m *. s.fast)) freqs,
    Array.map (scaled (fun (_, k) -> float_of_int k *. s.slow)) freqs )

let phase_unsheared s ~t1 ~t2 freq =
  (* Multiples of the fast fundamental ride on t1; everything else,
     including the nearby second tone, rides on t2 (paper eq. (9)). *)
  let m = Float.round (freq /. s.fast) in
  if Float.abs (freq -. (m *. s.fast)) <= 1e-9 *. Float.max (Float.abs freq) 1.0 then
    freq *. t1
  else freq *. t2

let validate_sources s mna =
  let rec check = function
    | [] -> Ok ()
    | f :: rest -> (
        match lattice s f with
        | (_ : int * int) -> check rest
        | exception Off_lattice f -> Error f)
  in
  check (Circuit.Mna.source_frequencies mna)
