module Vec = Linalg.Vec

type result = {
  t2_values : float array;
  columns : Vec.t array array;
  newton_iterations : int;
  converged : bool;
}

let run ?max_newton ?tol ?x_init ?seed ~(system : Assemble.system) ~shear ~n1 ~t2_stop
    ~steps () =
  if steps < 1 then invalid_arg "Envelope_follow.run: steps must be positive";
  Telemetry.span "envelope.run" @@ fun () ->
  let h2 = t2_stop /. float_of_int steps in
  let column0 =
    match x_init with
    | Some c -> c
    | None -> Fast_column.frozen_column ?max_newton ?tol ?seed system ~n1 ~shear ~t2:0.0
  in
  let t2_values = Array.init (steps + 1) (fun s -> float_of_int s *. h2) in
  let columns = Array.make (steps + 1) column0 in
  let iterations = ref 0 in
  let converged = ref true in
  for s = 1 to steps do
    let column, iters, ok =
      Telemetry.span "envelope.step" @@ fun () ->
      Fast_column.march_step ?max_newton ?tol system ~n1 ~shear ~t2:t2_values.(s) ~h2
        ~prev:columns.(s - 1)
    in
    iterations := !iterations + iters;
    if not ok then converged := false;
    columns.(s) <- column
  done;
  { t2_values; columns; newton_iterations = !iterations; converged = !converged }

let envelope_of result ~unknown ~mode =
  let sample column =
    let values = Array.map (fun x -> x.(unknown)) column in
    match mode with
    | Extract.Mean_t1 -> Vec.mean values
    | Extract.Peak_t1 -> Array.fold_left Float.max neg_infinity values
    | Extract.At_t1 frac -> Numeric.Interp.linear_periodic values frac
  in
  Array.map sample result.columns
