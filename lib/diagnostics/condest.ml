open Linalg

(* Deterministic LCG (Numerical Recipes constants) so estimates are
   reproducible run-to-run without touching the global RNG. *)
let lcg_vector ~seed n =
  let state = ref (Int64.of_int (0x9e3779b9 lxor seed)) in
  let next () =
    state :=
      Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    (* Map the top 53 bits to (-1, 1). *)
    let bits = Int64.to_float (Int64.shift_right_logical !state 11) in
    (bits /. 4503599627370496.0 *. 2.0) -. 1.0
  in
  Array.init n (fun _ -> next ())

let normalize v =
  let nrm = Kernel.nrm2 v in
  if nrm > 0.0 && Float.is_finite nrm then Vec.scale (1.0 /. nrm) v
  else (
    let u = Array.make (Array.length v) 0.0 in
    if Array.length u > 0 then u.(0) <- 1.0;
    u)

let two_norm_est ?(iters = 30) ?(seed = 1) ~n ~apply ~apply_t () =
  if n = 0 then 0.0
  else begin
    let v = ref (normalize (lcg_vector ~seed n)) in
    let sigma = ref 0.0 in
    (try
       for _ = 1 to iters do
         let w = apply !v in
         let s = Kernel.nrm2 w in
         if not (Float.is_finite s) then begin
           sigma := infinity;
           raise Exit
         end;
         if s = 0.0 then begin
           sigma := 0.0;
           raise Exit
         end;
         sigma := s;
         v := normalize (apply_t w)
       done
     with Exit -> ());
    !sigma
  end

let spectral_radius_est ?(iters = 30) ?(restarts = 2) ?(seed = 1) ~n ~apply ()
    =
  if n = 0 then 0.0
  else begin
    let best = ref 0.0 in
    for r = 0 to restarts - 1 do
      let v = ref (normalize (lcg_vector ~seed:(seed + (r * 7919)) n)) in
      (try
         for _ = 1 to iters do
           let w = apply !v in
           let s = Kernel.nrm2 w in
           if not (Float.is_finite s) then begin
             best := infinity;
             raise Exit
           end;
           if s = 0.0 then raise Exit;
           if s > !best then best := s;
           v := Vec.scale (1.0 /. s) w
         done
       with Exit -> ())
    done;
    !best
  end

let condest_dense a lu =
  let n = a.Mat.rows in
  let sigma_a =
    two_norm_est ~n ~apply:(Mat.mul_vec a) ~apply_t:(Mat.tmul_vec a) ()
  in
  let sigma_inv =
    two_norm_est ~n ~apply:(Lu.solve lu) ~apply_t:(Lu.solve_transposed lu) ()
  in
  sigma_a *. sigma_inv

let condest_csr a splu =
  let n = a.Sparse.Csr.rows in
  let sigma_a =
    two_norm_est ~n
      ~apply:(Sparse.Csr.mul_vec a)
      ~apply_t:(Sparse.Csr.tmul_vec a)
      ()
  in
  let rho_inv = spectral_radius_est ~n ~apply:(Sparse.Splu.solve splu) () in
  sigma_a *. rho_inv
