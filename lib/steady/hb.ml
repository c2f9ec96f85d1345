let solve ?max_newton ?tol ?budget ?x_init ~dae ~period ~harmonics () =
  if harmonics < 1 then invalid_arg "Hb.solve: need at least 1 harmonic";
  Telemetry.span "hb.solve" @@ fun () ->
  let points = (2 * harmonics) + 1 in
  let times = Array.init points (fun k -> float_of_int k *. period /. float_of_int points) in
  Solution.collocate ?max_newton ?tol ?budget ?x_init ~dae ~times
    (Numeric.Collocation.of_matrix (Numeric.Spectral.diff_matrix points period))
