(* Max abs difference between a coarse solution and a fine solution at
   the coarse grid points, over all unknowns. [stride1]/[stride2] map
   coarse indices into the fine grid (2 along a doubled direction). *)
let compare_at_shared coarse fine ~stride1 ~stride2 =
  let g = coarse.Solver.grid in
  let n = coarse.Solver.system.Assemble.size in
  let worst = ref 0.0 in
  for i = 0 to g.Grid.n1 - 1 do
    for j = 0 to g.Grid.n2 - 1 do
      let xc = Solver.state_at coarse ~i ~j in
      let xf = Solver.state_at fine ~i:(i * stride1) ~j:(j * stride2) in
      for v = 0 to n - 1 do
        let d = Float.abs (xc.(v) -. xf.(v)) in
        if d > !worst then worst := d
      done
    done
  done;
  !worst

let solve_grid ?options ?seed sys ~shear ~n1 ~n2 =
  Solver.solve ?options ?seed sys (Grid.make ~shear ~n1 ~n2)

let estimate_errors ?options ?seed sys ~shear ~n1 ~n2 =
  let base = solve_grid ?options ?seed sys ~shear ~n1 ~n2 in
  let fine1 = solve_grid ?options ?seed sys ~shear ~n1:(2 * n1) ~n2 in
  let fine2 = solve_grid ?options ?seed sys ~shear ~n1 ~n2:(2 * n2) in
  ( base,
    compare_at_shared base fine1 ~stride1:2 ~stride2:1,
    compare_at_shared base fine2 ~stride1:1 ~stride2:2 )
