type t = { freqs : float array; power : float array }

let pi = 4.0 *. atan 1.0

let periodogram ?(window = `Hann) ~sample_rate samples =
  let n = Array.length samples in
  if n < 2 then invalid_arg "Spectrum.periodogram: need at least 2 samples";
  Telemetry.span "rf.periodogram" @@ fun () ->
  let w =
    match window with
    | `Rect -> Array.make n 1.0
    | `Hann ->
        Array.init n (fun k ->
            0.5 *. (1.0 -. cos (2.0 *. pi *. float_of_int k /. float_of_int n)))
  in
  let coherent_gain = Array.fold_left ( +. ) 0.0 w /. float_of_int n in
  let windowed =
    Array.init n (fun k -> samples.(k) *. w.(k) /. coherent_gain)
  in
  let spectrum = Numeric.Fft.rfft windowed in
  let half = n / 2 in
  let freqs = Array.init (half + 1) (fun k -> float_of_int k *. sample_rate /. float_of_int n) in
  let power =
    Array.init (half + 1) (fun k ->
        let z = spectrum.(k) in
        let mag2 = (z.Complex.re *. z.Complex.re) +. (z.Complex.im *. z.Complex.im) in
        let scale = if k = 0 || (k = half && n mod 2 = 0) then 1.0 else 2.0 in
        (* 2·|X|²/n² is the squared RMS of the tone in that bin *)
        scale *. mag2 /. (float_of_int n *. float_of_int n) /. 2.0 *. 2.0)
  in
  { freqs; power }

let band_power t ~f_lo ~f_hi =
  let s = ref 0.0 in
  Array.iteri (fun k f -> if f >= f_lo && f <= f_hi then s := !s +. t.power.(k)) t.freqs;
  !s
