type operator = { weights : (int * float) array array; scale : float }

let backward_difference ~points ~h =
  {
    weights = Array.init points (fun k -> [| (k, 1.0); ((k + points - 1) mod points, -1.0) |]);
    scale = h;
  }

let central_difference ~points ~h =
  {
    weights =
      Array.init points (fun k ->
          [| ((k + 1) mod points, 1.0); ((k + points - 1) mod points, -1.0) |]);
    scale = 2.0 *. h;
  }

let of_matrix d =
  let points, _ = Linalg.Mat.dims d in
  let row k =
    List.init points (fun l -> (l, Linalg.Mat.get d k l))
    |> List.filter (fun (_, w) -> w <> 0.0)
    |> Array.of_list
  in
  { weights = Array.init points row; scale = 1.0 }

let diagonal { weights; scale } =
  Array.mapi
    (fun k row -> Array.fold_left (fun d (l, w) -> if l = k then d +. (w /. scale) else d) 0.0 row)
    weights

let lower_triangular { weights; _ } =
  let points = Array.length weights in
  let row_ok k row =
    Array.exists (fun (l, _) -> l = k) row
    && Array.for_all (fun (l, _) -> l <= k || points <= 2 * (l - k)) row
  in
  Array.for_all Fun.id (Array.mapi row_ok weights)

let replicate points x = Array.concat (List.init points (fun _ -> x))

let states n big = Array.init (Array.length big / n) (fun k -> Array.sub big (k * n) n)

let problem ?anchor (dae : Dae.t) op ~times =
  let n = dae.Dae.size in
  let points = Array.length op.weights in
  let big = points * n in
  let sources = Array.map dae.Dae.source times in
  let anchor = Option.map (fun (h, prev) -> (h, Array.map dae.Dae.eval_q prev)) anchor in
  let residual_into big_x r =
    let xs = states n big_x in
    let qs = Array.map dae.Dae.eval_q xs in
    for k = 0 to points - 1 do
      let f = dae.Dae.eval_f xs.(k) and b = sources.(k) in
      for i = 0 to n - 1 do
        let dq = ref 0.0 in
        Array.iter (fun (l, w) -> dq := !dq +. (w *. qs.(l).(i))) op.weights.(k);
        let dt = !dq /. op.scale in
        let dt =
          match anchor with
          | None -> dt
          | Some (h, q_prev) -> dt +. ((qs.(k).(i) -. q_prev.(k).(i)) /. h)
        in
        r.((k * n) + i) <- dt +. f.(i) -. b.(i)
      done
    done
  in
  let solve_into big_x r delta =
    let jacs = Array.map dae.Dae.jacobians (states n big_x) in
    let coo = Sparse.Coo.create ~capacity:(4 * big) big big in
    let add_block k l scale (m : Sparse.Csr.t) =
      for i = 0 to n - 1 do
        Sparse.Csr.iter_row m i (fun j v ->
            Sparse.Coo.add coo ((k * n) + i) ((l * n) + j) (scale v))
      done
    in
    for k = 0 to points - 1 do
      let g, c = jacs.(k) in
      add_block k k Fun.id g;
      Array.iter
        (fun (l, w) -> add_block k l (fun v -> w *. v /. op.scale) (snd jacs.(l)))
        op.weights.(k);
      Option.iter (fun (h, _) -> add_block k k (fun v -> v /. h) c) anchor
    done;
    Sparse.Splu.solve_into (Sparse.Splu.factor (Sparse.Csr.of_coo coo)) r delta
  in
  { Newton.residual_into; solve_into }
