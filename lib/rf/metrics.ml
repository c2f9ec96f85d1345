type eye = {
  opening : float;
  level_one : float;
  level_zero : float;
  isi_rms : float;
}

let eye_metrics ~samples_per_symbol ~bits ?(sample_phase = 0.5) waveform =
  let nbits = Array.length bits in
  if nbits = 0 then invalid_arg "Metrics.eye_metrics: empty bit pattern";
  if Array.length waveform < samples_per_symbol * nbits then
    invalid_arg "Metrics.eye_metrics: waveform shorter than the bit pattern";
  let sample_of k =
    let pos =
      (float_of_int k +. sample_phase) *. float_of_int samples_per_symbol
    in
    let i = min (Array.length waveform - 1) (int_of_float pos) in
    waveform.(i)
  in
  let ones = ref [] and zeros = ref [] in
  Array.iteri
    (fun k b -> if b then ones := sample_of k :: !ones else zeros := sample_of k :: !zeros)
    bits;
  let mean xs =
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let level_one = mean !ones and level_zero = mean !zeros in
  let worst_one = List.fold_left Float.min infinity !ones in
  let worst_zero = List.fold_left Float.max neg_infinity !zeros in
  let opening =
    match (!ones, !zeros) with
    | [], _ | _, [] -> 0.0
    | _ -> worst_one -. worst_zero
  in
  let rms_dev samples level =
    match samples with
    | [] -> 0.0
    | _ ->
        sqrt
          (List.fold_left (fun acc v -> acc +. ((v -. level) ** 2.0)) 0.0 samples
          /. float_of_int (List.length samples))
  in
  let isi_one = rms_dev !ones level_one and isi_zero = rms_dev !zeros level_zero in
  {
    opening;
    level_one;
    level_zero;
    isi_rms = sqrt ((isi_one *. isi_one) +. (isi_zero *. isi_zero));
  }

let adjacent_channel_power_ratio spectrum ~f_centre ~bandwidth ~spacing =
  let half = bandwidth /. 2.0 in
  let main = Spectrum.band_power spectrum ~f_lo:(f_centre -. half) ~f_hi:(f_centre +. half) in
  let adj =
    Spectrum.band_power spectrum
      ~f_lo:(f_centre +. spacing -. half)
      ~f_hi:(f_centre +. spacing +. half)
  in
  if main <= 0.0 then infinity else 10.0 *. log10 (adj /. main)
