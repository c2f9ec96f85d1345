let solve ?max_newton ?tol ?budget ?x_init ~dae ~period ~points () =
  if points < 2 then invalid_arg "Periodic_fd.solve: need at least 2 points";
  Telemetry.span "periodic-fd.solve" @@ fun () ->
  let h = period /. float_of_int points in
  let times = Array.init points (fun k -> float_of_int k *. h) in
  Solution.collocate ?max_newton ?tol ?budget ?x_init ~dae ~times
    (Numeric.Collocation.backward_difference ~points ~h)
