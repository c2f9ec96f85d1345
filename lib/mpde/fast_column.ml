(* The collocation problem of the [n1] states over one fast period,
   with an optional backward-Euler [anchor] in t2. *)
let column_problem ?anchor (sys : Assemble.system) ~n1 ~shear ~t2 =
  let h1 = Shear.t1_period shear /. float_of_int n1 in
  let times = Array.init n1 (fun i -> float_of_int i *. h1) in
  Numeric.Collocation.problem ?anchor
    (Assemble.to_dae sys ~source:(fun t1 -> Assemble.source_at sys ~t1 ~t2))
    (Numeric.Collocation.backward_difference ~points:n1 ~h:h1)
    ~times

let newton_options max_newton tol =
  { Numeric.Newton.default_options with max_iterations = max_newton; abs_tol = tol }

let frozen_column ?(max_newton = 80) ?(tol = 1e-8) ?seed (sys : Assemble.system) ~n1
    ~shear ~t2 =
  let n = sys.Assemble.size in
  let seed = match seed with Some s -> s | None -> Array.make n 0.0 in
  let big, stats =
    Numeric.Newton.solve ~options:(newton_options max_newton tol)
      (column_problem sys ~n1 ~shear ~t2)
      (Numeric.Collocation.replicate n1 seed)
  in
  if not (Numeric.Newton.converged stats) then
    failwith "Fast_column.frozen_column: fast-scale Newton failed";
  Numeric.Collocation.states n big

let march_step ?(max_newton = 80) ?(tol = 1e-8) (sys : Assemble.system) ~n1 ~shear ~t2
    ~h2 ~prev =
  let big, stats =
    Numeric.Newton.solve ~options:(newton_options max_newton tol)
      (column_problem ~anchor:(h2, prev) sys ~n1 ~shear ~t2)
      (Array.concat (Array.to_list prev))
  in
  ( Numeric.Collocation.states sys.Assemble.size big,
    stats.Numeric.Newton.iterations,
    Numeric.Newton.converged stats )
