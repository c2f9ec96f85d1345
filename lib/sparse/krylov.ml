module Vec = Linalg.Vec
module Kernel = Linalg.Kernel

type operator = Vec.t -> Vec.t

type stop_reason =
  | Tolerance
  | Happy_breakdown
  | Poisoned
  | Budget_exhausted
  | Max_iterations

type result = {
  x : Vec.t;
  converged : bool;
  iterations : int;
  residual_norm : float;
  restarts : int;
  stop : stop_reason;
}

(* Preallocated GMRES scratch: the Krylov basis, the column-wise
   Hessenberg, the Givens rotation coefficients, and the residual /
   update vectors. Sized for a (restart, n) pair and reused across
   restart cycles, Newton iterations, and whole solves — once a basis
   vector exists, nothing is allocated inside the restart loop. Basis
   vector j is created at its first use ([basis_vec]): a solve that
   converges in a few iterations never pays for the other restart
   columns.

   The O(n) vectors are driven by the {!Kernel} hot loops. Every
   field is overwritten before it is read, so a solve on a used
   workspace is bitwise the solve on a fresh one. *)
type workspace = {
  ws_n : int;
  ws_restart : int;
  basis : Vec.t array;  (* restart+1 slots; length n once created, empty before *)
  hcols : Vec.t array;  (* Hessenberg columns; hcols.(j) has length j+2 *)
  cs : Vec.t;
  sn : Vec.t;
  g : Vec.t;  (* restart+1 *)
  y : Vec.t;
  r : Vec.t;
  update : Vec.t;
  ident : Vec.t;  (* output of the default (identity) preconditioner *)
  mutable w : Vec.t;  (* the product being orthogonalized (not owned) *)
}

let workspace ~restart ~n =
  let restart = max restart 1 in
  {
    ws_n = n;
    ws_restart = restart;
    basis = Array.make (restart + 1) [||];
    hcols = Array.init restart (fun j -> Array.make (j + 2) 0.0);
    cs = Array.make restart 0.0;
    sn = Array.make restart 0.0;
    g = Array.make (restart + 1) 0.0;
    y = Array.make restart 0.0;
    r = Array.make n 0.0;
    update = Array.make n 0.0;
    ident = Array.make n 0.0;
    w = [||];
  }

(* Basis vector [j], created at its first use; it is written before it
   is read, like every other field. *)
let basis_vec ws j =
  let v = ws.basis.(j) in
  if Array.length v = ws.ws_n then v
  else begin
    let v = Array.make ws.ws_n 0.0 in
    ws.basis.(j) <- v;
    v
  end

(* [op v], timed as the true operator apply; a closed function, so
   [span_app] allocates nothing around it. *)
let apply_op op v = Telemetry.span_app "gmres.apply_op" (fun op v -> op v) op v

(* Modified Gram-Schmidt of [ws.w] against basis vectors 0 .. j into
   Hessenberg column j, its norm last. Each [axpy_dot] removes one
   projection and takes the next (the norm, at the end) in the same
   pass, so [w] is read once per basis vector; the values are bitwise
   those of the unfused dot, axpy, ..., nrm2 sequence. *)
let orth ws j =
  let w = ws.w and basis = ws.basis and hj = ws.hcols.(j) in
  hj.(0) <- Kernel.dot basis.(0) w;
  for i = 0 to j - 1 do
    hj.(i + 1) <- Kernel.axpy_dot (-.hj.(i)) basis.(i) w basis.(i + 1)
  done;
  hj.(j + 1) <- sqrt (Kernel.axpy_dot (-.hj.(j)) basis.(j) w w)

(* Restarted GMRES with right preconditioning and Givens-rotation QR of
   the Hessenberg matrix.

   Breakdown handling: a vanishing Hessenberg subdiagonal ("happy
   breakdown" — the Krylov space became invariant) finishes the inner
   loop with the current, now exact, iterate. A non-finite candidate
   basis vector (an operator or preconditioner that produced NaN/Inf)
   terminates the inner loop *before* the poisoned column enters the
   Givens QR; if no finite progress was made at all the whole solve
   aborts rather than looping on an unchanged iterate.

   The Arnoldi step applies [product] (default [op ∘ precond]); [op]
   itself only forms restart residuals.

   Buffer contract: [op], [precond] and [product] may return a shared
   internal buffer — every value GMRES keeps across calls is copied
   into its own (workspace) storage before the next operator
   application. *)
let gmres ?(restart = 50) ?(max_iter = 500) ?(tol = 1e-10) ?precond ?product ?budget
    ?x0 ?workspace:ws ?out op b =
  if restart < 1 then invalid_arg "Krylov.gmres: restart < 1";
  Telemetry.span "gmres" @@ fun () ->
  let n = Array.length b in
  (match x0 with
  | Some v when Array.length v <> n -> invalid_arg "Krylov.gmres: x0 length differs from b"
  | _ -> ());
  (match out with
  | Some v when Array.length v <> n -> invalid_arg "Krylov.gmres: out length differs from b"
  | _ -> ());
  if Resilience.Faultinject.gmres_stall () then begin
    (* Injected stagnation: report a zero-progress stall so callers
       escalate through exactly the path a real one would take. *)
    Telemetry.count "gmres.stalls";
    let x = match out with Some o -> o | None -> Array.make n 0.0 in
    (match x0 with Some x0 -> Array.blit x0 0 x 0 n | None -> Array.fill x 0 n 0.0);
    {
      x;
      converged = false;
      iterations = 0;
      residual_norm = infinity;
      restarts = 0;
      stop = Max_iterations;
    }
  end
  else
  let ws =
    match ws with
    | Some w when w.ws_n = n && w.ws_restart >= restart -> w
    | _ -> workspace ~restart ~n
  in
  let precond =
    match precond with
    | Some p -> p
    | None ->
        (* Identity into its own buffer: the caller may mutate the
           returned vector, so never hand back the argument. *)
        fun v ->
          Array.blit v 0 ws.ident 0 n;
          ws.ident
  in
  let product =
    match product with Some p -> p | None -> fun v -> apply_op op (precond v)
  in
  (* The iterate lives in [out] (or a fresh array), so nothing is
     copied back at the end. [b] and [x0] are only read; where [out]
     is [b], [b] is copied first, and where [out] is [x0] the iterate
     already starts there. *)
  let bv = match out with Some o when o == b -> Array.copy b | _ -> b in
  let x = match out with Some o -> o | None -> Array.make n 0.0 in
  (match x0 with
  | Some x0 when x0 != x -> Array.blit x0 0 x 0 n
  | Some _ -> ()
  | None -> Array.fill x 0 n 0.0);
  let bnorm = Kernel.nrm2 bv in
  let target = if bnorm > 0.0 then tol *. bnorm else tol in
  let total_iters = ref 0 in
  let final_res = ref infinity in
  let converged = ref false in
  let restarts = ref 0 in
  let stop = ref Max_iterations in
  (try
     while (not !converged) && !total_iters < max_iter do
       (match budget with
       | Some bu when Resilience.Budget.exhausted bu <> None ->
           stop := Budget_exhausted;
           raise Exit
       | _ -> ());
       incr restarts;
       Telemetry.count "gmres.restarts";
       let r = ws.r in
       if !total_iters = 0 && x0 = None then Array.blit bv 0 r 0 n
       else begin
         let ax = apply_op op x in
         Kernel.sub_into bv ax r
       end;
       let beta = Kernel.nrm2 r in
       final_res := beta;
       (* Per-restart residual curve: the true (unpreconditioned-side)
          residual at the head of each restart cycle. *)
       Telemetry.observe "gmres.restart_residual" beta;
       if not (Float.is_finite beta) then begin
         stop := Poisoned;
         raise Exit
       end;
       if beta <= target then begin
         converged := true;
         raise Exit
       end;
       let m = min restart (max_iter - !total_iters) in
       let basis = ws.basis in
       let inv_beta = 1.0 /. beta in
       Kernel.scale_into inv_beta r (basis_vec ws 0);
       (* Hessenberg stored column-wise: h.(j) has length j+2. *)
       let h = ws.hcols in
       let cs = ws.cs and sn = ws.sn in
       let g = ws.g in
       g.(0) <- beta;
       let k = ref 0 in
       let inner_done = ref false in
       let poisoned = ref false in
       while (not !inner_done) && !k < m do
         let j = !k in
         (* [w] may be the product's shared buffer — orthogonalizing
            it in place is fine, the normalized copy below is what
            survives the next call. *)
         let w = product basis.(j) in
         ws.w <- w;
         Telemetry.span_app "gmres.orth" orth ws j;
         let hj = h.(j) in
         if not (Float.is_finite hj.(j + 1)) then begin
           (* Poisoned column: solve with the j columns accepted so far. *)
           poisoned := true;
           stop := Poisoned;
           inner_done := true
         end
         else begin
           let happy = hj.(j + 1) <= 1e-300 in
           let bj1 = basis_vec ws (j + 1) in
           if happy then Array.fill bj1 0 n 0.0
           else begin
             let inv = 1.0 /. hj.(j + 1) in
             Kernel.scale_into inv w bj1
           end;
           (* Apply previous Givens rotations to the new column. *)
           for i = 0 to j - 1 do
             let t = (cs.(i) *. hj.(i)) +. (sn.(i) *. hj.(i + 1)) in
             hj.(i + 1) <- (-.sn.(i) *. hj.(i)) +. (cs.(i) *. hj.(i + 1));
             hj.(i) <- t
           done;
           (* New rotation to annihilate hj.(j+1). *)
           let denom = Float.hypot hj.(j) hj.(j + 1) in
           if denom > 0.0 then begin
             cs.(j) <- hj.(j) /. denom;
             sn.(j) <- hj.(j + 1) /. denom
           end
           else begin
             cs.(j) <- 1.0;
             sn.(j) <- 0.0
           end;
           hj.(j) <- denom;
           hj.(j + 1) <- 0.0;
           g.(j + 1) <- -.sn.(j) *. g.(j);
           g.(j) <- cs.(j) *. g.(j);
           incr total_iters;
           (match budget with
           | Some bu -> (
               try Resilience.Budget.check bu
               with Resilience.Budget.Exhausted _ ->
                 stop := Budget_exhausted;
                 inner_done := true)
           | None -> ());
           incr k;
           final_res := Float.abs g.(!k);
           if !final_res <= target then inner_done := true;
           if happy then begin
             (* Invariant Krylov subspace: the least-squares solution is
                exact; continuing would divide by the zero subdiagonal. *)
             converged := Float.abs g.(!k) <= Float.max target (1e-12 *. beta);
             stop := Happy_breakdown;
             inner_done := true
           end
         end
       done;
       if !poisoned && !k = 0 then
         (* No finite direction at all: updating x is impossible and the
            next restart would recompute the identical poisoned column —
            an infinite loop in the old code. *)
         raise Exit;
       (* Solve the triangular system for the Krylov coefficients. *)
       let k = !k in
       let y = ws.y in
       for i = k - 1 downto 0 do
         let s = ref g.(i) in
         for j = i + 1 to k - 1 do
           s := !s -. (h.(j).(i) *. y.(j))
         done;
         (* A zero pivot only arises on exact breakdown; dropping the
            direction is safer than dividing by zero. *)
         y.(i) <- (if Float.abs h.(i).(i) > 0.0 then !s /. h.(i).(i) else 0.0)
       done;
       let update = ws.update in
       Array.fill update 0 n 0.0;
       for j = 0 to k - 1 do
         Kernel.axpy y.(j) basis.(j) update
       done;
       Kernel.add_ip x (precond update);
       if !final_res <= target then converged := true;
       if !poisoned then raise Exit;
       (match budget with
       | Some bu when Resilience.Budget.exhausted bu <> None ->
           stop := Budget_exhausted;
           raise Exit
       | _ -> ())
     done
   with Exit -> ());
  let stop = if !converged && !stop <> Happy_breakdown then Tolerance else !stop in
  Telemetry.count ~by:!total_iters "gmres.iterations";
  if not !converged then Telemetry.count "gmres.stalls";
  Telemetry.gauge "gmres.final_relres"
    (if bnorm > 0.0 then !final_res /. bnorm else !final_res);
  Telemetry.gauge "gmres.last_restarts" (float_of_int !restarts);
  (match stop with
  | Happy_breakdown -> Telemetry.count "gmres.happy_breakdowns"
  | Poisoned -> Telemetry.count "gmres.poisoned_columns"
  | Budget_exhausted -> Telemetry.count "gmres.budget_stops"
  | Max_iterations when not !converged -> Telemetry.count "gmres.max_iter_stops"
  | _ -> ());
  {
    x;
    converged = !converged;
    iterations = !total_iters;
    residual_norm = !final_res;
    restarts = !restarts;
    stop;
  }
