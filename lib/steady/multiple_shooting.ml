module Vec = Linalg.Vec
module Mat = Linalg.Mat

(* Unknowns: the S window-start states stacked. Matching conditions:
   Φ_s(x_s) − x_{s+1 mod S} = 0, giving a block-cyclic Jacobian with
   window monodromies M_s on the diagonal band and −I on the
   super-diagonal (wrapping). Solved directly with the sparse LU —
   S·n stays small. *)
let solve ?(max_newton = 25) ?(tol = 1e-8) ?(steps_per_segment = 50) ?budget ?x0
    ~(dae : Numeric.Dae.t) ~period ~segments () =
  if segments < 1 then invalid_arg "Multiple_shooting.solve: segments must be positive";
  Telemetry.span "multiple-shooting.solve" @@ fun () ->
  let n = dae.Numeric.Dae.size in
  let seed = match x0 with Some x -> x | None -> Array.make n 0.0 in
  let starts = Array.init segments (fun _ -> Array.copy seed) in
  let window = period /. float_of_int segments in
  let newton_options =
    match budget with
    | None -> None
    | Some b -> Some { Numeric.Newton.default_options with budget = Some b }
  in
  let workspace = Numeric.Integrator.workspace dae in
  let integrate_window s =
    Shooting.integrate_with_sensitivity ?newton_options ~workspace ~x0:starts.(s)
      ~t0:(float_of_int s *. window)
      ~duration:window ~steps:steps_per_segment ()
  in
  let endpoint (trace, _) = trace.Numeric.Integrator.states.(steps_per_segment) in
  (* The first pass is one chained integration from the seed: window s
     starts where window s − 1 ends, so no window begins from the seed
     at a time where the sources have moved far from their t = 0
     values. Later passes integrate every window from its current
     start. *)
  let chained = ref false in
  let integrate_all () =
    let chain = not !chained in
    chained := true;
    let results = Array.make segments (integrate_window 0) in
    for s = 1 to segments - 1 do
      if chain then starts.(s) <- Array.copy (endpoint results.(s - 1));
      results.(s) <- integrate_window s
    done;
    results
  in
  let defect results =
    let defects =
      Array.init segments (fun s ->
          Vec.sub (endpoint results.(s)) starts.((s + 1) mod segments))
    in
    (defects, Array.fold_left (fun acc d -> Float.max acc (Vec.norm_inf d)) 0.0 defects)
  in
  let update results defects =
    let big = segments * n in
    let coo = Sparse.Coo.create ~capacity:(segments * n * (n + 1)) big big in
    let rhs = Array.make big 0.0 in
    Array.iteri
      (fun s (_, monodromy) ->
        let next = (s + 1) mod segments in
        for i = 0 to n - 1 do
          rhs.((s * n) + i) <- -.defects.(s).(i);
          Sparse.Coo.add coo ((s * n) + i) ((next * n) + i) (-1.0);
          for j = 0 to n - 1 do
            Sparse.Coo.add coo ((s * n) + i) ((s * n) + j) (Mat.get monodromy i j)
          done
        done)
      results;
    try Sparse.Splu.solve (Sparse.Splu.factor (Sparse.Csr.of_coo coo)) rhs
    with e -> failwith ("cyclic Jacobian solve failed: " ^ Printexc.to_string e)
  in
  let apply delta =
    Array.iteri
      (fun s x ->
        for i = 0 to n - 1 do
          x.(i) <- x.(i) +. delta.((s * n) + i)
        done)
      starts
  in
  (* Stitch the final windows into one period trace. *)
  let trace = function
    | None -> { Numeric.Integrator.times = [| 0.0 |]; states = [| starts.(0) |] }
    | Some results ->
        let total = (segments * steps_per_segment) + 1 in
        let times = Array.make total 0.0 and states = Array.make total starts.(0) in
        Array.iteri
          (fun s (trace, _) ->
            for k = 0 to steps_per_segment do
              let idx = (s * steps_per_segment) + k in
              if idx < total then begin
                times.(idx) <- trace.Numeric.Integrator.times.(k);
                states.(idx) <- trace.Numeric.Integrator.states.(k)
              end
            done)
          results;
        { Numeric.Integrator.times; states }
  in
  Shooting.outer_newton ~name:"multiple-shooting"
    ~diverged:"matching defects diverged (non-finite)" ~max_newton ~tol ?budget
    ~integrate:integrate_all ~defect ~update ~apply ~trace ()
