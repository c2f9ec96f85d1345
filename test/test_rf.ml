(* Tests for PRBS generation, spectra, and link metrics. *)

let pi = 4.0 *. atan 1.0

(* Total harmonic distortion of one period of samples, as the engines
   and Mpde.Extract compute it. *)
let thd x =
  Numeric.Fft.thd ~peak:(Linalg.Vec.norm_inf x) (Numeric.Fft.real_harmonics x)

let ones bits = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bits

(* ---------- Prbs ---------- *)

let test_prbs7_period () =
  let bits = Rf.Prbs.prbs7 254 in
  (* PRBS-7 repeats with period 127. *)
  let ok = ref true in
  for k = 0 to 126 do
    if bits.(k) <> bits.(k + 127) then ok := false
  done;
  Alcotest.(check bool) "period 127" true !ok

let test_prbs7_not_shorter_period () =
  let bits = Rf.Prbs.prbs7 127 in
  (* A maximal-length sequence is not 63-periodic. *)
  let differs = ref false in
  for k = 0 to 62 do
    if bits.(k) <> bits.(k + 63) then differs := true
  done;
  Alcotest.(check bool) "not 63-periodic" true !differs

let test_prbs7_balance () =
  let bits = Rf.Prbs.prbs7 127 in
  (* One full period has 64 ones and 63 zeros. *)
  Alcotest.(check int) "ones count" 64 (ones bits)

let test_prbs_determinism () =
  Alcotest.(check bool) "same seed, same bits" true (Rf.Prbs.prbs7 64 = Rf.Prbs.prbs7 64);
  Alcotest.(check bool) "different seeds differ" true
    (Rf.Prbs.prbs7 ~seed:0x11 64 <> Rf.Prbs.prbs7 ~seed:0x2A 64)

let test_prbs_zero_seed () =
  Alcotest.check_raises "zero seed" (Invalid_argument "Prbs: seed must be nonzero")
    (fun () -> ignore (Rf.Prbs.prbs7 ~seed:0 8))

(* ---------- Spectrum ---------- *)

let test_periodogram_tone () =
  let fs = 1000.0 and f0 = 125.0 and a = 2.0 in
  let n = 256 in
  let x = Array.init n (fun k -> a *. sin (2.0 *. pi *. f0 *. float_of_int k /. fs)) in
  let s = Rf.Spectrum.periodogram ~sample_rate:fs x in
  let peak = ref 0 in
  Array.iteri (fun k p -> if p > s.Rf.Spectrum.power.(!peak) then peak := k) s.Rf.Spectrum.power;
  let peak = !peak in
  Alcotest.(check (float 2.0)) "peak frequency" f0 s.Rf.Spectrum.freqs.(peak);
  (* On-bin tone with coherent-gain-corrected Hann: the peak bin reads
     the tone's squared RMS a²/2 = 2.0 exactly; the two side bins carry
     the Hann leakage (a²/8 each). *)
  Alcotest.(check (float 1e-6)) "tone power" 2.0 s.Rf.Spectrum.power.(peak);
  Alcotest.(check (float 1e-6)) "hann side lobe" 0.5 s.Rf.Spectrum.power.(peak + 1)

let test_periodogram_two_tones_resolved () =
  let fs = 1000.0 in
  let n = 512 in
  let x =
    Array.init n (fun k ->
        let t = float_of_int k /. fs in
        sin (2.0 *. pi *. 100.0 *. t) +. (0.1 *. sin (2.0 *. pi *. 200.0 *. t)))
  in
  let s = Rf.Spectrum.periodogram ~sample_rate:fs x in
  let p100 = Rf.Spectrum.band_power s ~f_lo:90.0 ~f_hi:110.0 in
  let p200 = Rf.Spectrum.band_power s ~f_lo:190.0 ~f_hi:210.0 in
  Alcotest.(check bool) "20 dB apart" true (10.0 *. log10 (p100 /. p200) > 18.0)

let test_periodogram_validation () =
  Alcotest.check_raises "too short"
    (Invalid_argument "Spectrum.periodogram: need at least 2 samples") (fun () ->
      ignore (Rf.Spectrum.periodogram ~sample_rate:1.0 [| 1.0 |]))

(* ---------- Metrics ---------- *)

(* A multi-time surface whose t1 mean is [a·cos(2π j/n2)]: its
   first difference-frequency harmonic has amplitude [a]. *)
let baseband_surface a =
  let n1 = 4 and n2 = 16 in
  Array.init n1 (fun i ->
      Array.init n2 (fun j ->
          (a *. cos (2.0 *. pi *. float_of_int j /. float_of_int n2))
          +. if i mod 2 = 0 then 0.3 else -0.3))

let test_db () =
  let gain a = Mpde.Extract.conversion_gain_db ~values:(baseband_surface a) ~rf_amplitude:1.0 ~harmonic:1 in
  Alcotest.(check (float 1e-9)) "unity" 0.0 (gain 1.0);
  Alcotest.(check (float 1e-9)) "20dB" 20.0 (gain 10.0)

let test_thd_pure_sine () =
  let n = 128 in
  let x = Array.init n (fun k -> sin (2.0 *. pi *. float_of_int k /. float_of_int n)) in
  Alcotest.(check bool) "pure sine THD ≈ 0" true (thd x < 1e-9)

let test_thd_square_wave () =
  (* Ideal square wave THD = sqrt(π²/8 − 1) ≈ 0.483. *)
  let n = 1024 in
  let x = Array.init n (fun k -> if k < n / 2 then 1.0 else -1.0) in
  let thd = thd x in
  Alcotest.(check bool) "square wave THD ≈ 0.483" true (Float.abs (thd -. 0.483) < 0.01)

let test_thd_known_harmonic () =
  let n = 256 in
  let x =
    Array.init n (fun k ->
        let t = float_of_int k /. float_of_int n in
        sin (2.0 *. pi *. t) +. (0.1 *. sin (2.0 *. pi *. 3.0 *. t)))
  in
  Alcotest.(check (float 1e-6)) "10%% third harmonic" 0.1 (thd x)

let test_conversion_gain () =
  Alcotest.(check (float 1e-9)) "-6dB" (20.0 *. log10 0.5)
    (Mpde.Extract.conversion_gain_db ~values:(baseband_surface 0.5) ~rf_amplitude:1.0
       ~harmonic:1)

let test_eye_clean_nrz () =
  let bits = [| true; false; true; true; false |] in
  let sps = 10 in
  let waveform =
    Array.init (sps * Array.length bits) (fun k -> if bits.(k / sps) then 1.0 else 0.0)
  in
  let eye = Rf.Metrics.eye_metrics ~samples_per_symbol:sps ~bits waveform in
  Alcotest.(check (float 1e-9)) "opening" 1.0 eye.Rf.Metrics.opening;
  Alcotest.(check (float 1e-9)) "level 1" 1.0 eye.Rf.Metrics.level_one;
  Alcotest.(check (float 1e-9)) "level 0" 0.0 eye.Rf.Metrics.level_zero;
  Alcotest.(check (float 1e-9)) "no ISI" 0.0 eye.Rf.Metrics.isi_rms

let test_eye_with_isi () =
  (* A low-pass-filtered NRZ stream: opening shrinks, ISI grows. *)
  let bits = [| true; false; true; true; false; false; true; false |] in
  let sps = 16 in
  let ideal =
    Array.init (sps * Array.length bits) (fun k -> if bits.(k / sps) then 1.0 else 0.0)
  in
  (* Single-pole IIR as the band-limited channel. *)
  let filtered = Array.copy ideal in
  let alpha = 0.25 in
  for k = 1 to Array.length filtered - 1 do
    filtered.(k) <- filtered.(k - 1) +. (alpha *. (ideal.(k) -. filtered.(k - 1)))
  done;
  let eye_ideal = Rf.Metrics.eye_metrics ~samples_per_symbol:sps ~bits ideal in
  let eye_isi = Rf.Metrics.eye_metrics ~samples_per_symbol:sps ~bits filtered in
  Alcotest.(check bool) "opening shrinks" true
    (eye_isi.Rf.Metrics.opening < eye_ideal.Rf.Metrics.opening);
  Alcotest.(check bool) "isi grows" true
    (eye_isi.Rf.Metrics.isi_rms > eye_ideal.Rf.Metrics.isi_rms);
  Alcotest.(check bool) "eye still open" true (eye_isi.Rf.Metrics.opening > 0.0)

let test_eye_validation () =
  Alcotest.check_raises "short waveform"
    (Invalid_argument "Metrics.eye_metrics: waveform shorter than the bit pattern")
    (fun () ->
      ignore
        (Rf.Metrics.eye_metrics ~samples_per_symbol:10 ~bits:[| true; false |]
           (Array.make 5 0.0)))

let test_acpr () =
  let fs = 1000.0 in
  let n = 1024 in
  let x =
    Array.init n (fun k ->
        let t = float_of_int k /. fs in
        sin (2.0 *. pi *. 100.0 *. t) +. (0.01 *. sin (2.0 *. pi *. 150.0 *. t)))
  in
  let s = Rf.Spectrum.periodogram ~sample_rate:fs x in
  let acpr =
    Rf.Metrics.adjacent_channel_power_ratio s ~f_centre:100.0 ~bandwidth:20.0 ~spacing:50.0
  in
  (* Adjacent tone is 40 dB down. *)
  Alcotest.(check bool) "ACPR ≈ -40dB" true (Float.abs (acpr +. 40.0) < 2.0)

(* ---------- properties ---------- *)

let prop_prbs_balance_near_half =
  QCheck.Test.make ~count:30 ~name:"prbs: long-run balance near 1/2"
    QCheck.(make Gen.(int_range 500 4000))
    (fun n ->
      let b = float_of_int (ones (Rf.Prbs.prbs7 n)) /. float_of_int n in
      b > 0.35 && b < 0.65)

let prop_thd_scale_invariant =
  QCheck.Test.make ~count:50 ~name:"thd: invariant under scaling"
    QCheck.(make Gen.(float_range 0.1 100.0))
    (fun a ->
      let n = 64 in
      let x =
        Array.init n (fun k ->
            let t = float_of_int k /. float_of_int n in
            sin (2.0 *. pi *. t) +. (0.2 *. sin (2.0 *. pi *. 2.0 *. t)))
      in
      let scaled = Array.map (fun v -> a *. v) x in
      Float.abs (thd x -. thd scaled) < 1e-9)

let () =
  Alcotest.run "rf"
    [
      ( "prbs",
        [
          Alcotest.test_case "prbs7 period" `Quick test_prbs7_period;
          Alcotest.test_case "maximal length" `Quick test_prbs7_not_shorter_period;
          Alcotest.test_case "prbs7 balance" `Quick test_prbs7_balance;
          Alcotest.test_case "determinism" `Quick test_prbs_determinism;
          Alcotest.test_case "zero seed" `Quick test_prbs_zero_seed;
        ] );
      ( "spectrum",
        [
          Alcotest.test_case "single tone" `Quick test_periodogram_tone;
          Alcotest.test_case "two tones" `Quick test_periodogram_two_tones_resolved;
          Alcotest.test_case "validation" `Quick test_periodogram_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "db" `Quick test_db;
          Alcotest.test_case "thd pure sine" `Quick test_thd_pure_sine;
          Alcotest.test_case "thd square wave" `Quick test_thd_square_wave;
          Alcotest.test_case "thd known harmonic" `Quick test_thd_known_harmonic;
          Alcotest.test_case "conversion gain" `Quick test_conversion_gain;
          Alcotest.test_case "clean eye" `Quick test_eye_clean_nrz;
          Alcotest.test_case "eye with ISI" `Quick test_eye_with_isi;
          Alcotest.test_case "eye validation" `Quick test_eye_validation;
          Alcotest.test_case "acpr" `Quick test_acpr;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_prbs_balance_near_half; prop_thd_scale_invariant ] );
    ]
