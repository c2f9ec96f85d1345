module Vec = Linalg.Vec
module Budget = Resilience.Budget
module Guard = Resilience.Guard
module Ladder = Resilience.Ladder
module Report = Resilience.Report

let log_src = Logs.Src.create "rfss.mpde" ~doc:"MPDE solver resilience"

module Log = (val Logs.src_log log_src : Logs.LOG)

type linear_solver = Direct | Gmres_sweep

(* GMRES on the sweep-preconditioned system: Krylov space per cycle,
   total inner iterations, and tolerance relative to the Newton rhs. *)
let gmres_restart = 60
let gmres_max_iter = 600
let gmres_tol = 1e-9

exception Linear_stall of string

type options = {
  max_newton : int;
  tol : float;
  scheme : Assemble.scheme;
  linear_solver : linear_solver;
  allow_continuation : bool;
  budget : Budget.t option;
}

let default_options =
  {
    max_newton = 50;
    tol = 1e-8;
    scheme = Assemble.Backward;
    linear_solver = Gmres_sweep;
    allow_continuation = true;
    budget = None;
  }

type stats = {
  newton_iterations : int;
  converged : bool;
  residual_norm : float;
  linear_iterations : int;
  continuation_steps : int;
  continuation_rejected : int;
  strategy : string;
  wall_seconds : float;
}

type solution = {
  grid : Grid.t;
  scheme : Assemble.scheme;
  system : Assemble.system;
  big_x : Vec.t;
  stats : stats;
  report : Report.t;
}

(* Per-solve workspace: assembly scratch plus the linear-solver caches
   (GMRES Krylov basis, sweep factors, the sparse-LU factorization
   refreshed numerically on its frozen pattern). Owned by exactly one
   solve on one domain. *)
type workspace = {
  mutable asm : Assemble.workspace;
  mutable gmres_ws : Sparse.Krylov.workspace option;
  op_out : Vec.t;  (* shared operator output (GMRES buffer contract) *)
  sweep : Block_sweep.t;
  mutable splu : Sparse.Splu.t option;
}

let make_workspace scheme sys (g : Grid.t) =
  let n = sys.Assemble.size in
  let np = Grid.points g in
  let big = np * n in
  {
    asm = Assemble.workspace scheme sys g;
    gmres_ws = None;
    op_out = Array.make big 0.0;
    sweep = Block_sweep.create ~n ~np;
    splu = None;
  }

(* Can a retained workspace serve a new solve of this shape? The big
   buffers and the sweep store depend only on (n, np). *)
let workspace_fits ws sys (g : Grid.t) =
  Block_sweep.fits ws.sweep ~n:sys.Assemble.size ~np:(Grid.points g)

(* Rebind a retained workspace to a new solve job: fresh assembly
   workspace (it is bound to the system/grid and cheap — the big COO is
   lazy), dropped numeric caches, kept big allocations. The GMRES
   workspace keeps no state between solves, so it is kept as is. *)
let rebind_workspace ws scheme sys (g : Grid.t) =
  ws.asm <- Assemble.workspace scheme sys g;
  ws.splu <- None;
  ws

let gmres_workspace ws ~n =
  match ws.gmres_ws with
  | Some k -> k
  | None ->
      let k = Sparse.Krylov.workspace ~restart:gmres_restart ~n in
      ws.gmres_ws <- Some k;
      k

let solve_linear ~ws ~linear_solver ~budget (g : Grid.t) ~jacs ~extra_diag ~rhs ~out
    ~linear_iters =
  match linear_solver with
  | Direct -> (
      Telemetry.span "mpde.linear.direct" @@ fun () ->
      (* Numeric-refresh path: with [extra_diag = 0] this is the same
         CSR instance every Newton iteration, which keeps the sparse-LU
         pattern cache valid. *)
      let m = Assemble.jacobian_ws ws.asm in
      let m =
        if extra_diag = 0.0 then m
        else Sparse.Csr.add m (Sparse.Csr.scale extra_diag (Sparse.Csr.identity m.Sparse.Csr.rows))
      in
      let f = Sparse.Splu.refactor_or_factor ws.splu m in
      ws.splu <- Some f;
      Sparse.Splu.solve_into f rhs out)
  | Gmres_sweep -> (
      Telemetry.span "mpde.linear.gmres-sweep" @@ fun () ->
      (* Matrix-free for every scheme: the big Jacobian is never
         assembled on this path. The true J·x only forms restart
         residuals, with the sweep's C·y buffer as its C·v scratch;
         each Arnoldi step takes J·M⁻¹v from the sweep. *)
      let op v =
        Assemble.jacobian_apply_ws ws.asm ~extra_diag ~cw:(Block_sweep.c_products ws.sweep) v
          ws.op_out;
        ws.op_out
      in
      (* Exact factors at every Newton iterate: a lagged or shared
         block lets a switching device's conductance drift unseen, and
         GMRES pays for it many times over (DESIGN.md §12). *)
      Block_sweep.build ws.sweep (Assemble.workspace_operators ws.asm) g ~jacs ~extra_diag;
      let workspace = gmres_workspace ws ~n:(Array.length rhs) in
      let result =
        Sparse.Krylov.gmres ~restart:gmres_restart ~max_iter:gmres_max_iter ~tol:gmres_tol
          ~precond:(Block_sweep.apply ws.sweep) ~product:(Block_sweep.product ws.sweep)
          ?budget ~workspace ~out op rhs
      in
      linear_iters := !linear_iters + result.Sparse.Krylov.iterations;
      (* GMRES wrote its iterate into [out]; unless it converged, a
         stall: budget exhaustion when the budget ran out,
         [Linear_stall] otherwise. *)
      if not result.Sparse.Krylov.converged then begin
        (match budget with
        | Some b -> (
            match Budget.exhausted b with Some e -> raise (Budget.Exhausted e) | None -> ())
        | None -> ());
        raise
          (Linear_stall
             (Printf.sprintf "GMRES stalled (residual %.3e after %d iterations)"
                result.Sparse.Krylov.residual_norm result.Sparse.Krylov.iterations))
      end)

(* Scan per-point Jacobian blocks before they reach the linear solver:
   a NaN entry in G or C would otherwise poison GMRES silently. Each
   values array is read in a plain loop, in row order; only the first
   non-finite entry pays for locating its row and column. *)
let check_jacobians_finite ~n jacs =
  let check p which (m : Sparse.Csr.t) =
    let values = m.Sparse.Csr.values in
    let len = Array.length values in
    let k = ref 0 in
    while !k < len && Float.is_finite (Array.unsafe_get values !k) do
      incr k
    done;
    if !k < len then begin
      let k = !k and i = ref 0 in
      while m.Sparse.Csr.row_ptr.(!i + 1) <= k do
        incr i
      done;
      let i = !i in
      raise
        (Guard.Non_finite
           {
             Guard.index = (p * n) + i;
             value = values.(k);
             block = Some p;
             offset = Some i;
             context =
               Printf.sprintf "MPDE %s-Jacobian entry (%d,%d)" which i
                 m.Sparse.Csr.col_idx.(k);
           })
    end
  in
  for p = 0 to Array.length jacs - 1 do
    let gp, cp = jacs.(p) in
    check p "G" gp;
    check p "C" cp
  done

(* Pseudo-transient loading: residual gains [alpha·(x − anchor)] and the
   Jacobian [alpha·I], pulling the iterate toward the anchor while
   regularizing near-singular Jacobians; [alpha] is then relaxed to zero
   — the same decade-ladder idea as Dcop's gmin stepping, generalized to
   the full MPDE grid vector. *)
type ptc = { alpha : float; anchor : Vec.t }

let newton_problem ~options ~linear_solver ~ws ?ptc ~sys ~g ~sources ~linear_iters
    ~source_scale ~on_residual_violation () =
  let n = sys.Assemble.size in
  let scaled_sources =
    if source_scale = 1.0 then sources
    else Array.map (Vec.scale source_scale) sources
  in
  let base_residual big_x r =
    Assemble.residual_into ws.asm ~sources:scaled_sources big_x r;
    match ptc with
    | Some { alpha; anchor } ->
        for i = 0 to Array.length r - 1 do
          r.(i) <- r.(i) +. (alpha *. (big_x.(i) -. anchor.(i)))
        done
    | None -> ()
  in
  let extra_diag = match ptc with Some { alpha; _ } -> alpha | None -> 0.0 in
  {
    Numeric.Newton.residual_into =
      Guard.guarded ~context:"MPDE residual" ~block_size:n
        ~on_violation:on_residual_violation base_residual;
    solve_into =
      (fun big_x r delta ->
        let jacs = Assemble.point_jacobians_ws ws.asm big_x in
        (* Fault-injection hook: corrupt row 0 of the first point-block.
           The workspace CSRs are restamped from the circuit on every
           evaluation, so the damage is transient — the next linearize
           sees clean Jacobians, exactly like a data-dependent glitch. *)
        (match Resilience.Faultinject.jacobian_fault () with
        | None -> ()
        | Some action ->
            let corrupt (m : Sparse.Csr.t) f =
              let lo = m.Sparse.Csr.row_ptr.(0)
              and hi = m.Sparse.Csr.row_ptr.(1) in
              for k = lo to hi - 1 do
                m.Sparse.Csr.values.(k) <- f m.Sparse.Csr.values.(k)
              done
            in
            let gp, cp = jacs.(0) in
            let f =
              match action with
              | `Singular -> fun _ -> 0.0
              | `Scale s -> fun v -> v *. s
            in
            corrupt gp f;
            corrupt cp f);
        (try check_jacobians_finite ~n jacs
         with Guard.Non_finite v as e ->
           on_residual_violation v;
           raise e);
        solve_linear ~ws ~linear_solver ~budget:options.budget g ~jacs
          ~extra_diag ~rhs:r ~out:delta ~linear_iters);
  }

let solve ?(options = default_options) ?seed ?workspace_slot
    (sys : Assemble.system) (g : Grid.t) =
  let t_start = Telemetry.Clock.wall () in
  let tele_mark = Telemetry.mark () in
  Telemetry.span "mpde.solve" @@ fun () ->
  Telemetry.with_alloc_gauges "alloc" @@ fun () ->
  let n = sys.Assemble.size in
  let np = Grid.points g in
  let big = np * n in
  let big_x0 =
    let x = Array.make big 0.0 in
    (match seed with
    | Some s when Array.length s = n ->
        for p = 0 to np - 1 do
          Array.blit s 0 x (p * n) n
        done
    | Some s when Array.length s = big -> Array.blit s 0 x 0 big
    | Some _ -> invalid_arg "Mpde.Solver.solve: bad seed size"
    | None -> ());
    x
  in
  let sources = Assemble.sources_on_grid sys g in
  (* Sweep-scale solves reuse one workspace per domain through the
     caller-held slot: the multi-megabyte numeric buffers (compact
     sweep factors, Krylov basis, operator buffers) survive from job
     to job, while everything bound to the previous system is rebound
     or dropped. A shape mismatch falls back to a fresh workspace. *)
  let ws =
    match workspace_slot with
    | Some slot -> (
        match !slot with
        | Some w when workspace_fits w sys g ->
            Telemetry.count "mpde.workspace.reuses";
            rebind_workspace w options.scheme sys g
        | _ ->
            let w = make_workspace options.scheme sys g in
            slot := Some w;
            w)
    | None -> make_workspace options.scheme sys g
  in
  let linear_iters = ref 0 in
  let newton_total = ref 0 in
  let continuation_steps = ref 0 and continuation_rejected = ref 0 in
  let trajectory = ref [] in
  let stage_iters : (string * int) list ref = ref [] in
  let last_x = ref big_x0 in
  (* Attribution for non-finite residuals: remember the first violation
     per stage so a Diverged Newton outcome can be classified and
     reported with its grid point. *)
  let residual_violation = ref None in
  let on_residual_violation v =
    if !residual_violation = None then begin
      residual_violation := Some v;
      let p = Option.value v.Guard.block ~default:(v.Guard.index / n) in
      Log.warn (fun m ->
          m "non-finite residual at grid point (%d,%d), unknown %d: %h"
            (p mod g.Grid.n1) (p / g.Grid.n1)
            (Option.value v.Guard.offset ~default:(v.Guard.index mod n))
            v.Guard.value)
    end
  in
  let newton_options =
    {
      Numeric.Newton.default_options with
      max_iterations = options.max_newton;
      abs_tol = options.tol;
      budget = options.budget;
    }
  in
  let record_stage name iters =
    stage_iters :=
      (name, iters + (List.assoc_opt name !stage_iters |> Option.value ~default:0))
      :: List.remove_assoc name !stage_iters
  in
  let on_iteration _k _x rnorm =
    trajectory := rnorm :: !trajectory;
    Telemetry.observe "mpde.newton_residual" rnorm
  in
  (* Classify a failed Newton outcome into a ladder failure. *)
  let classify (stats : Numeric.Newton.stats) =
    match stats.Numeric.Newton.outcome with
    | Numeric.Newton.Converged -> assert false
    | Numeric.Newton.Exhausted e ->
        (Ladder.Exhausted e, Budget.exhaustion_to_string e)
    | Numeric.Newton.Diverged -> (
        match !residual_violation with
        | Some v -> (Ladder.Non_finite v, Guard.violation_to_string v)
        | None -> (Ladder.Nonlinear, "residual diverged"))
    | Numeric.Newton.Solver_failure msg -> (
        (* solve_linearized failures: a recorded violation means the
           Jacobian itself went non-finite (device overflow — escalate
           the nonlinear strategy); otherwise the linear solver broke. *)
        match !residual_violation with
        | Some v -> (Ladder.Non_finite v, Guard.violation_to_string v)
        | None -> (Ladder.Linear_stall, msg))
    | Numeric.Newton.Stalled -> (Ladder.Nonlinear, "Newton stalled")
    | Numeric.Newton.Max_iterations -> (Ladder.Nonlinear, "Newton hit max iterations")
  in
  let run_newton ~name ~linear_solver ?ptc ~source_scale x_init =
    residual_violation := None;
    let problem =
      newton_problem ~options ~linear_solver ~ws ?ptc ~sys ~g ~sources ~linear_iters
        ~source_scale ~on_residual_violation ()
    in
    let x, stats = Numeric.Newton.solve ~options:newton_options ~on_iteration problem x_init in
    newton_total := !newton_total + stats.Numeric.Newton.iterations;
    record_stage name stats.Numeric.Newton.iterations;
    last_x := x;
    (x, stats)
  in
  let plain_stage name linear_solver =
    fun () ->
      match run_newton ~name ~linear_solver ~source_scale:1.0 big_x0 with
      | x, stats when Numeric.Newton.converged stats -> Ok x
      | _, stats -> Error (classify stats)
  in
  let source_ramp_stage () =
    residual_violation := None;
    let problem_at lambda =
      newton_problem ~options ~linear_solver:options.linear_solver ~ws ~sys ~g ~sources
        ~linear_iters ~source_scale:lambda ~on_residual_violation ()
    in
    let x, cstats =
      Numeric.Continuation.trace ?budget:options.budget ~newton_options ~problem_at
        ~x0:big_x0 ()
    in
    newton_total := !newton_total + cstats.Numeric.Continuation.newton_iterations;
    record_stage "source-ramp" cstats.Numeric.Continuation.newton_iterations;
    continuation_steps := !continuation_steps + cstats.Numeric.Continuation.steps_taken;
    continuation_rejected :=
      !continuation_rejected + cstats.Numeric.Continuation.steps_rejected;
    last_x := x;
    if cstats.Numeric.Continuation.converged then Ok x
    else
      match cstats.Numeric.Continuation.exhausted with
      | Some e -> Error (Ladder.Exhausted e, Budget.exhaustion_to_string e)
      | None ->
          Error
            ( Ladder.Nonlinear,
              Printf.sprintf "source ramp stalled after %d steps (%d rejected)"
                cstats.Numeric.Continuation.steps_taken
                cstats.Numeric.Continuation.steps_rejected )
  in
  let ptc_ramp_stage () =
    (* Scale the initial loading to the Jacobian's diagonal so it is
       neither negligible nor dominant across wildly different h1/h2. *)
    let alpha0 =
      try
        ignore (Assemble.point_jacobians_ws ws.asm big_x0);
        let jac = Assemble.jacobian_ws ws.asm in
        let d = Sparse.Csr.diag jac in
        let dmax =
          Array.fold_left
            (fun acc v -> if Float.is_finite v then Float.max acc (Float.abs v) else acc)
            0.0 d
        in
        1e-2 *. Float.max 1.0 dmax
      with _ -> 1.0
    in
    let rec relax alpha x =
      (match options.budget with Some b -> Budget.check b | None -> ());
      if alpha < alpha0 *. 1e-9 then
        (* loading is now negligible: finish with the plain problem *)
        match run_newton ~name:"ptc-ramp" ~linear_solver:options.linear_solver
                ~source_scale:1.0 x
        with
        | x', stats when Numeric.Newton.converged stats -> Ok x'
        | _, stats -> Error (classify stats)
      else
        let ptc = { alpha; anchor = Array.copy x } in
        match run_newton ~name:"ptc-ramp" ~linear_solver:options.linear_solver ~ptc
                ~source_scale:1.0 x
        with
        | x', stats when Numeric.Newton.converged stats ->
            continuation_steps := !continuation_steps + 1;
            relax (alpha /. 10.0) x'
        | _, stats -> Error (classify stats)
    in
    relax alpha0 big_x0
  in
  let stages =
    [
      {
        Ladder.name = "newton";
        applies = Ladder.always;
        attempt = plain_stage "newton" options.linear_solver;
      };
      {
        Ladder.name = "direct-lu";
        applies =
          (fun prev ->
            Ladder.on_linear_stall prev && options.linear_solver <> Direct);
        attempt = plain_stage "direct-lu" Direct;
      };
      {
        Ladder.name = "source-ramp";
        applies = (fun prev -> options.allow_continuation && prev <> None);
        attempt = source_ramp_stage;
      };
      {
        Ladder.name = "ptc-ramp";
        applies = (fun prev -> options.allow_continuation && prev <> None);
        attempt = ptc_ramp_stage;
      };
    ]
  in
  let run = Ladder.run ?budget:options.budget stages in
  (match run.Ladder.strategy with
  | Some s when s <> "newton" -> Log.info (fun m -> m "escalation recovered via %s" s)
  | _ -> ());
  let big_x = match run.Ladder.value with Some x -> x | None -> !last_x in
  let residual_norm =
    let r = Array.make big 0.0 in
    Assemble.residual_into ws.asm ~sources big_x r;
    Vec.norm_inf r
  in
  let converged = run.Ladder.value <> None in
  let wall_seconds = Telemetry.Clock.wall () -. t_start in
  let telemetry =
    Option.map Telemetry.Summary.of_snapshot (Telemetry.snapshot ~since:tele_mark ())
  in
  let report =
    Report.of_ladder ?telemetry
      ~iterations_of:(fun name ->
        List.assoc_opt name !stage_iters |> Option.value ~default:0)
      ~residual_trajectory:(Array.of_list (List.rev !trajectory))
      ~residual_norm ~newton_iterations:!newton_total ~linear_iterations:!linear_iters
      ~wall_seconds run
  in
  {
    grid = g;
    scheme = options.scheme;
    system = sys;
    big_x;
    stats =
      {
        newton_iterations = !newton_total;
        converged;
        residual_norm;
        linear_iterations = !linear_iters;
        continuation_steps = !continuation_steps;
        continuation_rejected = !continuation_rejected;
        strategy = Option.value run.Ladder.strategy ~default:"none";
        wall_seconds;
      };
    report;
  }

let solve_mna ?options ?seed ?workspace_slot ~shear ~n1 ~n2 mna =
  (match Shear.validate_sources shear mna with
  | Ok () -> ()
  | Error f -> raise (Shear.Off_lattice f));
  let grid = Grid.make ~shear ~n1 ~n2 in
  let sys = Assemble.of_mna ~shear mna in
  let seed =
    (* A caller-supplied seed (single state or full grid surface from a
       warm-start cache) wins over the DC point, but only when its
       length actually fits this grid — a surface from different (n1,
       n2) would silently corrupt the Newton start. *)
    let fits v =
      let n = Linalg.Vec.dim v in
      n = sys.Assemble.size || n = Grid.points grid * sys.Assemble.size
    in
    match seed with
    | Some v when fits v -> Some v
    | _ ->
        let r = Circuit.Dcop.solve mna in
        if r.Circuit.Dcop.converged then Some r.Circuit.Dcop.x else None
  in
  solve ?options ?seed ?workspace_slot sys grid

let state_at sol ~i ~j =
  let p = Grid.point_index sol.grid i j in
  Assemble.state_of ~size:sol.system.Assemble.size sol.big_x p

let quasi_static_start ?seed (sys : Assemble.system) (g : Grid.t) =
  let n = sys.Assemble.size in
  let n1 = g.Grid.n1 in
  let big = Array.make (Grid.points g * n) 0.0 in
  for j = 0 to g.Grid.n2 - 1 do
    let column =
      Fast_column.frozen_column ?seed sys ~n1 ~shear:g.Grid.shear ~t2:(Grid.t2_of g j)
    in
    Array.iteri
      (fun i x -> Array.blit x 0 big (Grid.point_index g i j * n) n)
      column
  done;
  big

let residual_norm_check sol =
  let sources = Assemble.sources_on_grid sol.system sol.grid in
  Vec.norm_inf (Assemble.residual sol.scheme sol.system sol.grid ~sources sol.big_x)
