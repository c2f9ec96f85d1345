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
  (* q, f, G and C at the points, one device pass each ([Stacked]);
     [sources] hold b. *)
  let stack = Stacked.create dae ~points in
  let evaluate eval v =
    let out = Array.make n 0.0 in
    eval v out;
    out
  in
  let sources = Array.map (evaluate dae.Dae.source_into) times in
  let anchor =
    Option.map
      (fun (h, prev) ->
        Stacked.load stack (Array.concat (Array.to_list prev));
        (h, Array.map Array.copy (Stacked.charges stack)))
      anchor
  in
  let residual_into big_x r =
    Stacked.load stack big_x;
    let qs = Stacked.charges stack and fs = Stacked.forces stack in
    for k = 0 to points - 1 do
      let b = sources.(k) and f = fs.(k) and row = op.weights.(k) in
      for i = 0 to n - 1 do
        let dq = ref 0.0 in
        for e = 0 to Array.length row - 1 do
          let l, w = row.(e) in
          dq := !dq +. (w *. qs.(l).(i))
        done;
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
  (* The stacked COO skips exact zeros, so a slot a point's pattern has
     and a fresh build lacks (+0) changes neither the stacked CSR nor
     its factor. *)
  let solve_into big_x r delta =
    let jacs = Stacked.jacobians stack big_x in
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
