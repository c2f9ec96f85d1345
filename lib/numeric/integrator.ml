module Vec = Linalg.Vec

type method_ = Backward_euler | Trapezoidal

type step_result = {
  x : Vec.t;
  newton_iterations : int;
  converged : bool;
  outcome : Newton.outcome;
}

(* A step's scalars in a float-only record, so that setting them
   allocates nothing: the step size, the step Jacobian's scales
   [sc]/[sg] for J = sc·C + sg·G, and the scales of the held factor. *)
type scalars = {
  mutable h : float;
  mutable sc : float;
  mutable sg : float;
  mutable lu_sc : float;
  mutable lu_sg : float;
}

(* Step workspace. [load] writes q and f into [q_buf]/[f_buf] and G and
   C's values into their frozen patterns in one device pass: all four
   are at [at_x] while [at_valid], G and C only if [gc_fits] too (a
   load whose stamps left the patterns leaves them to be rebuilt from
   [jacobians] when a solve needs them). The last residual a step
   evaluated is its accepted iterate, so the Newton solve at that
   point and the next step's [x_prev] find everything loaded.
   J = sc·C + sg·G lives on the union pattern, filled through slot maps
   and refactored on the frozen pivot order; [lu] is J's factor at
   [at_x] with scales [lu_sc]/[lu_sg] while [lu_valid]. [problem] is
   the step's Newton problem, built once over the workspace's fields
   and run on [newton]. [structure] counts the changes of what the
   caches are not keyed on: G/C/J patterns adopted by [install], and
   fresh factors (new pivot orders). *)
type workspace = {
  dae : Dae.t;
  load : Vec.t -> q:Vec.t -> f:Vec.t -> g:Sparse.Csr.t -> c:Sparse.Csr.t -> bool;
  q_buf : Vec.t;
  f_buf : Vec.t;
  at_x : Vec.t;
  mutable at_valid : bool;
  mutable gc_fits : bool;
  q_prev : Vec.t;
  f_prev : Vec.t;  (* f(x_prev), for trapezoidal *)
  b_next : Vec.t;
  b_prev : Vec.t;  (* b(t_next − h), for trapezoidal *)
  mutable g : Sparse.Csr.t;
  mutable c : Sparse.Csr.t;
  mutable jac : Sparse.Csr.t;
  mutable g_slot : int array;
  mutable c_slot : int array;
  mutable lu : Sparse.Splu.t option;
  mutable lu_valid : bool;
  scalars : scalars;
  mutable method_ : method_;
  mutable structure : int;
  newton : Newton.workspace;
  problem : Newton.problem;
}

let empty_csr n =
  {
    Sparse.Csr.rows = n;
    cols = n;
    row_ptr = Array.make (n + 1) 0;
    col_idx = [||];
    values = [||];
  }

let size ws = ws.dae.Dae.size

(* Adopt freshly built G and C: J's pattern becomes their union, which
   also invalidates any held factor's structure. *)
let install ws g c =
  let n = size ws in
  let coo = Sparse.Coo.create ~capacity:(Sparse.Csr.nnz g + Sparse.Csr.nnz c) n n in
  let add_pattern m =
    for i = 0 to n - 1 do
      Sparse.Csr.iter_row m i (fun j _ -> Sparse.Coo.add coo i j 1.0)
    done
  in
  add_pattern c;
  add_pattern g;
  let jac = Sparse.Csr.of_coo coo in
  let slots (m : Sparse.Csr.t) =
    let s = Array.make (Sparse.Csr.nnz m) 0 in
    for i = 0 to n - 1 do
      for p = m.Sparse.Csr.row_ptr.(i) to m.Sparse.Csr.row_ptr.(i + 1) - 1 do
        s.(p) <- Sparse.Csr.slot jac i m.Sparse.Csr.col_idx.(p)
      done
    done;
    s
  in
  ws.g <- g;
  ws.c <- c;
  ws.jac <- jac;
  ws.g_slot <- slots g;
  ws.c_slot <- slots c;
  ws.structure <- ws.structure + 1

let rebuild ws x =
  Telemetry.count "integrator.jacobian_rebuilds";
  let g, c = ws.dae.Dae.jacobians x in
  install ws g c

(* q, f, G and C at [x] in one device pass, unless the workspace
   already holds them. The first evaluation builds G and C's patterns
   at [x] ([structure] is 0 until a first [install]). A new point
   invalidates the held factor. *)
let evaluate ws x =
  if not (ws.at_valid && Vec.same_bits ws.at_x x) then begin
    ws.at_valid <- false;
    ws.lu_valid <- false;
    if ws.structure = 0 then rebuild ws x;
    ws.gc_fits <- ws.load x ~q:ws.q_buf ~f:ws.f_buf ~g:ws.g ~c:ws.c;
    Array.blit x 0 ws.at_x 0 (size ws);
    ws.at_valid <- true
  end

(* G and C at [x]: the values the load at [x] wrote, or a rebuild from
   [jacobians] when its stamps left the patterns. *)
let evaluate_jacobians ws x =
  evaluate ws x;
  if not ws.gc_fits then begin
    rebuild ws x;
    ws.gc_fits <- true
  end

(* J = (1/h) C + β G for each method. *)
let set_scales s method_ h =
  s.h <- h;
  s.sc <- 1.0 /. h;
  s.sg <- (match method_ with Backward_euler -> 1.0 | Trapezoidal -> 0.5)

(* Factor J at [x] with the workspace's current scales. *)
let factor_jacobian ws x =
  evaluate_jacobians ws x;
  let s = ws.scalars in
  if not (ws.lu_valid && s.lu_sc = s.sc && s.lu_sg = s.sg) then begin
    let sc = s.sc and sg = s.sg in
    (* Slot-wise C then G: the same sum, bit for bit, as merging the
       scaled C and G triplets of a row through [Csr.of_coo]. *)
    let v = ws.jac.Sparse.Csr.values in
    Array.fill v 0 (Array.length v) 0.0;
    let cv = ws.c.Sparse.Csr.values and gv = ws.g.Sparse.Csr.values in
    for p = 0 to Array.length ws.c_slot - 1 do
      let s = ws.c_slot.(p) in
      v.(s) <- v.(s) +. (sc *. cv.(p))
    done;
    for p = 0 to Array.length ws.g_slot - 1 do
      let s = ws.g_slot.(p) in
      v.(s) <- v.(s) +. (sg *. gv.(p))
    done;
    (* A failed refactor leaves [lu]'s values unspecified. *)
    ws.lu_valid <- false;
    let lu = Sparse.Splu.refactor_or_factor ws.lu ws.jac in
    (match ws.lu with
    | Some held when held == lu -> ()
    | _ ->
        ws.lu <- Some lu;
        ws.structure <- ws.structure + 1);
    s.lu_sc <- sc;
    s.lu_sg <- sg;
    ws.lu_valid <- true
  end

let linearize ws ~method_ ~h x =
  set_scales ws.scalars method_ h;
  factor_jacobian ws x

let factor ws =
  match ws.lu with
  | Some lu when ws.lu_valid -> lu
  | _ -> invalid_arg "Integrator: no step Jacobian factored"

let solve_columns ws cols = Sparse.Splu.solve_columns (factor ws) cols

let structure ws = ws.structure

let charge_jacobian ws =
  if not (ws.at_valid && ws.gc_fits) then
    invalid_arg "Integrator.charge_jacobian: nothing evaluated";
  ws.c

(* The step residual: (q(x) − q(x_prev))/h plus the method's f and
   source combination. *)
let step_residual ws x r =
  evaluate ws x;
  let q = ws.q_buf and f = ws.f_buf and q_prev = ws.q_prev and b_next = ws.b_next in
  let h = ws.scalars.h in
  match ws.method_ with
  | Backward_euler ->
      for i = 0 to size ws - 1 do
        r.(i) <- ((q.(i) -. q_prev.(i)) /. h) +. f.(i) -. b_next.(i)
      done
  | Trapezoidal ->
      let f_prev = ws.f_prev and b_prev = ws.b_prev in
      for i = 0 to size ws - 1 do
        r.(i) <-
          ((q.(i) -. q_prev.(i)) /. h)
          +. (0.5 *. (f.(i) -. b_next.(i)))
          +. (0.5 *. (f_prev.(i) -. b_prev.(i)))
      done

(* The step Jacobian is (1/h) C(x) + beta G(x). *)
let step_solve ws x r delta =
  factor_jacobian ws x;
  Sparse.Splu.solve_into (factor ws) r delta

let workspace (dae : Dae.t) =
  let n = dae.Dae.size in
  let q_buf = Array.make n 0.0 and f_buf = Array.make n 0.0 and at_x = Array.make n 0.0 in
  let q_prev = Array.make n 0.0 and f_prev = Array.make n 0.0 in
  let b_next = Array.make n 0.0 and b_prev = Array.make n 0.0 in
  let newton = Newton.workspace n and empty = empty_csr n in
  let scalars = { h = 0.0; sc = 0.0; sg = 0.0; lu_sc = 0.0; lu_sg = 0.0 } in
  let rec ws =
    {
      dae;
      (* One private stamping stream per workspace; a workspace is
         single-domain by contract. *)
      load = dae.Dae.load ();
      q_buf;
      f_buf;
      at_x;
      at_valid = false;
      gc_fits = false;
      q_prev;
      f_prev;
      b_next;
      b_prev;
      g = empty;
      c = empty;
      jac = empty;
      g_slot = [||];
      c_slot = [||];
      lu = None;
      lu_valid = false;
      scalars;
      method_ = Backward_euler;
      structure = 0;
      newton;
      problem =
        {
          Newton.residual_into = (fun x r -> step_residual ws x r);
          solve_into = (fun x r delta -> step_solve ws x r delta);
        };
    }
  in
  ws

(* One implicit step: the step's scalars, q(x_prev) and the sources go
   into the workspace, then the step problem runs on the workspace's
   Newton loop. q(x_prev) (and f(x_prev) for trapezoidal) is carried
   from the previous step's accepted iterate when x_prev is that point,
   and so is its first residual's q and f. *)
let implicit_step ?newton_options ~method_ ~workspace:ws ~t_next ~h ~x_prev () =
  let n = size ws in
  set_scales ws.scalars method_ h;
  ws.method_ <- method_;
  evaluate ws x_prev;
  Array.blit ws.q_buf 0 ws.q_prev 0 n;
  ws.dae.Dae.source_into t_next ws.b_next;
  (match method_ with
  | Backward_euler -> ()
  | Trapezoidal ->
      Array.blit ws.f_buf 0 ws.f_prev 0 n;
      ws.dae.Dae.source_into (t_next -. h) ws.b_prev);
  let outcome = Newton.solve_in ?options:newton_options ws.newton ws.problem x_prev in
  {
    x = Array.copy (Newton.iterate ws.newton);
    newton_iterations = Newton.iterations ws.newton;
    converged = outcome = Newton.Converged;
    outcome;
  }

type trace = { times : float array; states : Vec.t array }

(* One macro-step that recursively halves on Newton failure. *)
let rec attempt ?newton_options ~method_ ~workspace ~t_start ~h ~x_prev ~depth
    ~remaining_newton () =
  if depth > 8 then failwith "Integrator: Newton failed at minimum step size";
  let r =
    implicit_step ?newton_options ~method_ ~workspace ~t_next:(t_start +. h) ~h ~x_prev ()
  in
  if
    r.converged
    || (* Budget ran out: halving the step would only re-trip it. *)
    match r.outcome with Newton.Exhausted _ -> true | _ -> false
  then
    if remaining_newton = 0 then r
    else { r with newton_iterations = r.newton_iterations + remaining_newton }
  else begin
    let half = h /. 2.0 in
    let mid =
      attempt ?newton_options ~method_ ~workspace ~t_start ~h:half ~x_prev ~depth:(depth + 1)
        ~remaining_newton:(remaining_newton + r.newton_iterations) ()
    in
    attempt ?newton_options ~method_ ~workspace ~t_start:(t_start +. half) ~h:half
      ~x_prev:mid.x ~depth:(depth + 1) ~remaining_newton:mid.newton_iterations ()
  end

let robust_step ?newton_options ~method_ ~workspace ~t_start ~h ~x_prev () =
  attempt ?newton_options ~method_ ~workspace ~t_start ~h ~x_prev ~depth:0 ~remaining_newton:0 ()

let transient ?newton_options ?(method_ = Backward_euler) ~dae ~x0 ~t0 ~t1 ~steps () =
  if steps <= 0 then invalid_arg "Integrator.transient: steps must be positive";
  let h = (t1 -. t0) /. float_of_int steps in
  let workspace = workspace dae in
  let times = Array.make (steps + 1) t0 in
  (* Sized from [||], not from the young [x0]: a larger array made from
     a young block forces a minor collection (OCaml 5.1). *)
  let states = Array.make (steps + 1) [||] in
  states.(0) <- x0;
  let reached = ref steps in
  (try
     for k = 1 to steps do
       let t_start = t0 +. (float_of_int (k - 1) *. h) in
       let r =
         robust_step ?newton_options ~method_ ~workspace ~t_start ~h ~x_prev:states.(k - 1) ()
       in
       if not r.converged then begin
         (* Only a budget exhaustion reaches here (robust_step raises on
            genuine step failure); hand back the trace so far. *)
         reached := k - 1;
         raise Exit
       end;
       times.(k) <- t0 +. (float_of_int k *. h);
       states.(k) <- r.x
     done
   with Exit -> ());
  if !reached = steps then { times; states }
  else { times = Array.sub times 0 (!reached + 1); states = Array.sub states 0 (!reached + 1) }

let sample trace k = Array.map (fun x -> x.(k)) trace.states
