type t = {
  n1 : int;
  n2 : int;
  shear : Shear.t;
  h1 : float;
  h2 : float;
}

let make ~shear ~n1 ~n2 =
  if n1 < 2 || n2 < 2 then invalid_arg "Grid.make: dimensions must be at least 2";
  {
    n1;
    n2;
    shear;
    h1 = Shear.t1_period shear /. float_of_int n1;
    h2 = Shear.t2_period shear /. float_of_int n2;
  }

let points g = g.n1 * g.n2
let t1_of g i = float_of_int i *. g.h1
let t2_of g j = float_of_int j *. g.h2

let wrap1 g i = ((i mod g.n1) + g.n1) mod g.n1
let wrap2 g j = ((j mod g.n2) + g.n2) mod g.n2
let point_index g i j = (wrap2 g j * g.n1) + wrap1 g i

let prolong ~size coarse x fine =
  let values = Array.make_matrix coarse.n1 coarse.n2 0.0 in
  let out = Array.make (points fine * size) 0.0 in
  for k = 0 to size - 1 do
    for j = 0 to coarse.n2 - 1 do
      for i = 0 to coarse.n1 - 1 do
        values.(i).(j) <- x.((point_index coarse i j * size) + k)
      done
    done;
    for j = 0 to fine.n2 - 1 do
      let v = float_of_int j /. float_of_int fine.n2 in
      for i = 0 to fine.n1 - 1 do
        out.((point_index fine i j * size) + k) <-
          Numeric.Interp.bilinear_periodic values (float_of_int i /. float_of_int fine.n1) v
      done
    done
  done;
  out
