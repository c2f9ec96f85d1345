module Vec = Linalg.Vec
module Budget = Resilience.Budget
module Guard = Resilience.Guard
module Ladder = Resilience.Ladder
module Report = Resilience.Report

let log_src = Logs.Src.create "rfss.mpde" ~doc:"MPDE solver resilience"

module Log = (val Logs.src_log log_src : Logs.LOG)

type linear_solver = Direct | Gmres_sweep

(* GMRES on the sweep-preconditioned system: Krylov space per cycle
   and total inner iterations. Its tolerance relative to the Newton rhs
   is the forcing term of an inexact Newton method (Eisenstat & Walker,
   SIAM J. Sci. Comput. 17(1), 1996, choice 2 with its safeguard;
   DESIGN.md §5), kept in [forcing_min, forcing_max]. The first solve
   of each Newton solve runs at [forcing_min], so a linear circuit or a
   one-step warm start is solved as tightly as ever. The safeguard can
   only bind with a cap above √(0.1/0.9). *)
let gmres_restart = 60
let gmres_max_iter = 600
let forcing_gamma = 0.9
let forcing_safeguard = 0.1
let forcing_min = 1e-9
let forcing_max = 1e-3

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

type start = Plain | Seeded | Nested

let start_name = function Plain -> "plain" | Seeded -> "seeded" | Nested -> "nested"

type stats = {
  newton_iterations : int;
  converged : bool;
  residual_norm : float;
  linear_iterations : int;
  continuation_steps : int;
  continuation_rejected : int;
  strategy : string;
  start : start;
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

(* Per-solve workspace: assembly scratch, the grid's sources, plus the
   linear-solver caches (GMRES Krylov basis, sweep factors, the
   sparse-LU factorization refreshed numerically on its frozen
   pattern). Owned by exactly one solve on one domain. *)
type workspace = {
  mutable asm : Assemble.workspace;
  sources : Vec.t;  (* b̂ on the grid, written once per solve *)
  mutable scaled : Vec.t;  (* λ·b̂ for a source-ramp step, [||] until one runs *)
  mutable gmres_ws : Sparse.Krylov.workspace option;
  op_out : Vec.t;  (* shared operator output (GMRES buffer contract) *)
  sweep : Block_sweep.t;
  mutable splu : Sparse.Splu.t option;
  mutable coarsest : workspace option;
      (* the nested start's coarsest level, kept for the next solve *)
}

let make_workspace scheme sys (g : Grid.t) =
  let n = sys.Assemble.size in
  let np = Grid.points g in
  let big = np * n in
  {
    asm = Assemble.workspace scheme sys g;
    sources = Array.make big 0.0;
    scaled = [||];
    gmres_ws = None;
    op_out = Array.make big 0.0;
    sweep = Block_sweep.create ~n ~np;
    splu = None;
    coarsest = None;
  }

(* Can a retained workspace serve a new solve of this shape? The big
   buffers and the sweep store depend only on (n, np). *)
let workspace_fits ws sys (g : Grid.t) =
  Block_sweep.fits ws.sweep ~n:sys.Assemble.size ~np:(Grid.points g)

(* Rebind a retained workspace to a new solve job: the assembly
   workspace keeps its per-point buffers and is rebound to the
   system/grid, the numeric caches are dropped, the big allocations
   kept. The GMRES workspace keeps no state between solves, so it is
   kept as is. *)
let rebind_workspace ws scheme sys (g : Grid.t) =
  ws.asm <- Assemble.rebind ws.asm scheme sys g;
  ws.splu <- None;
  ws

(* The workspace with the grid's sources written into it. *)
let with_sources ws sys (g : Grid.t) =
  Assemble.sources_into sys g ws.sources;
  ws

(* The forcing state of one Newton solve: [fnorm] is ‖F‖∞ at its last
   linear solve (negative before the first) and [eta] that solve's
   tolerance. Float-only, so updating it boxes nothing. *)
type forcing = { mutable fnorm : float; mutable eta : float }

(* η_k = γ·(‖F_k‖∞/‖F_{k−1}‖∞)², at least γ·η_{k−1}² when that exceeds
   the safeguard, clamped. *)
let next_forcing fc r =
  let fnorm = Vec.norm_inf r in
  let eta =
    if fc.fnorm < 0.0 then forcing_min
    else
      let ratio = fnorm /. fc.fnorm in
      let eta = forcing_gamma *. ratio *. ratio in
      let prev = forcing_gamma *. fc.eta *. fc.eta in
      let eta = if prev > forcing_safeguard then Float.max eta prev else eta in
      Float.min forcing_max (Float.max forcing_min eta)
  in
  fc.fnorm <- fnorm;
  fc.eta <- eta

let gmres_workspace ws ~n =
  match ws.gmres_ws with
  | Some k -> k
  | None ->
      let k = Sparse.Krylov.workspace ~restart:gmres_restart ~n in
      ws.gmres_ws <- Some k;
      k

let solve_linear ~ws ~linear_solver ~budget ~forcing (g : Grid.t) ~jacs ~extra_diag ~rhs
    ~out ~linear_iters =
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
      next_forcing forcing rhs;
      Telemetry.observe "gmres.forcing" forcing.eta;
      let result =
        Sparse.Krylov.gmres ~restart:gmres_restart ~max_iter:gmres_max_iter ~tol:forcing.eta
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

(* A Newton problem on [ws]'s grid. A scaled problem writes λ·b̂ into
   [ws.scaled]; Newton runs one problem at a time, so each scaled
   problem owns that buffer while it runs. *)
let newton_problem ~options ~linear_solver ~ws ?ptc ~sys ~g ~linear_iters
    ~source_scale ~on_residual_violation () =
  let n = sys.Assemble.size in
  let sources =
    if source_scale = 1.0 then ws.sources
    else begin
      let big = Array.length ws.sources in
      if Array.length ws.scaled <> big then ws.scaled <- Array.make big 0.0;
      for k = 0 to big - 1 do
        ws.scaled.(k) <- source_scale *. ws.sources.(k)
      done;
      ws.scaled
    end
  in
  let base_residual big_x r =
    Assemble.residual_into ws.asm ~sources big_x r;
    match ptc with
    | Some { alpha; anchor } ->
        for i = 0 to Array.length r - 1 do
          r.(i) <- r.(i) +. (alpha *. (big_x.(i) -. anchor.(i)))
        done
    | None -> ()
  in
  let extra_diag = match ptc with Some { alpha; _ } -> alpha | None -> 0.0 in
  let forcing = { fnorm = -1.0; eta = forcing_min } in
  {
    Numeric.Newton.residual_into =
      Guard.guarded ~context:"MPDE residual" ~block_size:n
        ~on_violation:on_residual_violation base_residual;
    solve_into =
      (fun big_x r delta ->
        let jacs = Assemble.point_jacobians_ws ws.asm big_x in
        (* Fault-injection hook: corrupt row 0 of the first point-block.
           The workspace CSRs are reloaded from the circuit by every
           residual, so the damage is transient — the next linearize
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
        solve_linear ~ws ~linear_solver ~budget:options.budget ~forcing g ~jacs
          ~extra_diag ~rhs:r ~out:delta ~linear_iters);
  }

(* Nested-iteration start (DESIGN.md §5). A cold solve (from a DC state
   or zero) of a nonlinear system decides its start on the coarsest
   grid of the halving chain (⌊n1/2⌋×⌊n2/2⌋, recursively while both axes
   keep [nested_floor] points). That grid's Newton runs from the seed,
   and its first step is the probe. A step that converges, or keeps at
   most [nested_gate] of ‖F‖∞, means Newton is past its damped phase:
   the probe stops there and the fine grid runs plain Newton from the
   seed. Otherwise the probe's run goes on as the coarsest level, and
   each finer grid runs Newton from the prolonged solution of the one
   below. The first-step ratio hardly depends on the grid: the
   catalog's mixers read at most 2e-3 and the rectifiers, the detector
   and the Gilbert cell at least 0.39, on the coarsest grids and on the
   fine ones. A linear system takes no probe: Newton solves it in one
   step from any start. *)
let nested_gate = 0.1
let nested_floor = 3

exception Fast_start

let coarser (g : Grid.t) =
  let n1 = g.Grid.n1 / 2 and n2 = g.Grid.n2 / 2 in
  if n1 >= nested_floor && n2 >= nested_floor then Some (Grid.make ~shear:g.Grid.shear ~n1 ~n2)
  else None

(* The grids of the halving chain below [g], coarsest first. *)
let halvings g =
  let rec down acc g = match coarser g with Some cg -> down (cg :: acc) cg | None -> acc in
  down [] g

(* The probe's hook: raises [Fast_start] before iteration 1 when the
   first step kept at most [nested_gate] of ‖F₀‖∞, and otherwise sets
   [slow]. A step that converges ends the run before iteration 1. *)
let probe_gate slow =
  let r0 = ref Float.nan in
  fun k _ rnorm ->
    if k = 0 then r0 := rnorm
    else if k = 1 then if rnorm <= nested_gate *. !r0 then raise Fast_start else slow := true

(* The coarsest level's workspace, kept inside the solve's [ws]: a
   domain's next probe on a grid of the same shape reuses its
   buffers. *)
let coarsest_workspace ws scheme sys (cg : Grid.t) =
  match ws.coarsest with
  | Some w when workspace_fits w sys cg -> rebind_workspace w scheme sys cg
  | _ ->
      let w = make_workspace scheme sys cg in
      ws.coarsest <- Some w;
      w

let solve ?(options = default_options) ?seed ?workspace_slot
    (sys : Assemble.system) (g : Grid.t) =
  let t_start = Telemetry.Clock.wall () in
  let tele_mark = Telemetry.mark () in
  Telemetry.span "mpde.solve" @@ fun () ->
  Telemetry.with_alloc_gauges "alloc" @@ fun () ->
  let n = sys.Assemble.size in
  let big = Grid.points g * n in
  (* A seed of one circuit state (the DC point) goes to every grid
     point; a full surface is taken as is. *)
  let start_on (lg : Grid.t) =
    let np = Grid.points lg in
    let x = Array.make (np * n) 0.0 in
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
  let big_x0 = start_on g in
  let cold = match seed with Some s -> Array.length s <> big | None -> true in
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
  let ws = with_sources ws sys g in
  let linear_iters = ref 0 in
  let newton_total = ref 0 in
  let continuation_steps = ref 0 and continuation_rejected = ref 0 in
  let trajectory = ref [] in
  let stage_iters : (string * int) list ref = ref [] in
  let levels : Report.stage list ref = ref [] in
  let start = ref (if cold then Plain else Seeded) in
  let last_x = ref big_x0 in
  (* The last converged run of the plain problem (unscaled, unloaded):
     its final iterate and ‖F‖∞, which is the solve's residual norm
     when that iterate is the answer. *)
  let accepted = ref None in
  (* Attribution for non-finite residuals: remember the first violation
     per stage so a Diverged Newton outcome can be classified and
     reported with its grid point. *)
  let residual_violation = ref None in
  let on_residual_violation (lg : Grid.t) v =
    if !residual_violation = None then begin
      residual_violation := Some v;
      let p = Option.value v.Guard.block ~default:(v.Guard.index / n) in
      Log.warn (fun m ->
          m "non-finite residual at grid point (%d,%d) of %dx%d, unknown %d: %h"
            (p mod lg.Grid.n1) (p / lg.Grid.n1) lg.Grid.n1 lg.Grid.n2
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
  (* One Newton solve on grid [lg] with workspace [lws]. [min_iterations]
     is 1 from a foreign start: a surface meeting the tolerance is not
     taken without a step (a residual bound is not a waveform bound). *)
  let newton_on (lg, lws) ~linear_solver ?ptc ?(min_iterations = 0) ~source_scale
      ~on_iteration x_init =
    residual_violation := None;
    let problem =
      newton_problem ~options ~linear_solver ~ws:lws ?ptc ~sys ~g:lg ~linear_iters ~source_scale
        ~on_residual_violation:(on_residual_violation lg) ()
    in
    Numeric.Newton.solve
      ~options:{ newton_options with min_iterations }
      ~on_iteration problem x_init
  in
  let run_newton ~name ~linear_solver ?ptc ?min_iterations ~source_scale x_init =
    let x, stats =
      newton_on (g, ws) ~linear_solver ?ptc ?min_iterations ~source_scale ~on_iteration
        x_init
    in
    newton_total := !newton_total + stats.Numeric.Newton.iterations;
    record_stage name stats.Numeric.Newton.iterations;
    last_x := x;
    if ptc = None && source_scale = 1.0 && Numeric.Newton.converged stats then
      accepted := Some (x, stats.Numeric.Newton.residual_norm);
    (x, stats)
  in
  (* A coarse level: its Newton solve from [x] on grid [lg] with
     workspace [lws], and its stage row [<name>@<n1>x<n2>], whose
     iterations count in the total and whose wall starts at [t0]. *)
  let level_newton ?(on_iteration = fun _ _ _ -> ()) ~min_iterations lg lws x =
    newton_on
      (lg, with_sources lws sys lg)
      ~linear_solver:options.linear_solver ~min_iterations ~source_scale:1.0 ~on_iteration x
  in
  let level_row name (lg : Grid.t) ~t0 iterations status =
    newton_total := !newton_total + iterations;
    levels :=
      {
        Report.name = Printf.sprintf "%s@%dx%d" name lg.Grid.n1 lg.Grid.n2;
        status;
        iterations;
        wall_seconds = Telemetry.Clock.wall () -. t0;
      }
      :: !levels
  in
  let level_status stats =
    if Numeric.Newton.converged stats then `Success else `Failed (snd (classify stats))
  in
  let finish (x, stats) = if Numeric.Newton.converged stats then Ok x else Error (classify stats) in
  let plain_stage name linear_solver =
    fun () ->
      finish
        (run_newton ~name ~linear_solver ~min_iterations:(if cold then 0 else 1)
           ~source_scale:1.0 big_x0)
  in
  let newton_stage () =
    let plain = plain_stage "newton" options.linear_solver in
    (* Up the chain from the level [cg] solved as [cx]: each finer grid
       runs Newton from the prolonged answer, the fine grid last. A
       level that fails sends the solve back to the plain start. *)
    let rec climb (cg : Grid.t) cx = function
      | [] -> (
          match
            run_newton ~name:"newton" ~linear_solver:options.linear_solver ~min_iterations:1
              ~source_scale:1.0 (Grid.prolong ~size:n cg cx g)
          with
          | (_, stats) as r when Numeric.Newton.converged stats ->
              start := Nested;
              finish r
          | _ -> plain ())
      | lg :: finer ->
          let t0 = Telemetry.Clock.wall () in
          let x, stats =
            level_newton ~min_iterations:1 lg (make_workspace options.scheme sys lg)
              (Grid.prolong ~size:n cg cx lg)
          in
          level_row "newton" lg ~t0 stats.Numeric.Newton.iterations (level_status stats);
          if Numeric.Newton.converged stats then climb lg x finer else plain ()
    in
    match halvings g with
    | cg :: finer when cold && not sys.Assemble.linear -> (
        let t0 = Telemetry.Clock.wall () in
        let slow = ref false in
        let probe =
          Telemetry.span "mpde.probe" @@ fun () ->
          match
            level_newton ~on_iteration:(probe_gate slow) ~min_iterations:0 cg
              (coarsest_workspace ws options.scheme sys cg)
              (start_on cg)
          with
          | exception Fast_start -> `Fast 1
          | _, stats when Numeric.Newton.converged stats && not !slow ->
              `Fast stats.Numeric.Newton.iterations
          | r -> `Ran r
        in
        match probe with
        | `Fast steps ->
            level_row "probe" cg ~t0 steps `Success;
            plain ()
        | `Ran (cx, stats) ->
            (* past the probe's step only on the slow verdict *)
            level_row
              (if !slow then "newton" else "probe")
              cg ~t0 stats.Numeric.Newton.iterations (level_status stats);
            if Numeric.Newton.converged stats then climb cg cx finer else plain ())
    | _ -> plain ()
  in
  let source_ramp_stage () =
    residual_violation := None;
    let problem_at lambda =
      newton_problem ~options ~linear_solver:options.linear_solver ~ws ~sys ~g ~linear_iters
        ~source_scale:lambda ~on_residual_violation:(on_residual_violation g) ()
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
        attempt = newton_stage;
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
    match (run.Ladder.value, !accepted) with
    | Some x, Some (x', rnorm) when x == x' -> rnorm
    | _ ->
        let r = Array.make big 0.0 in
        Assemble.residual_into ws.asm ~sources:ws.sources big_x r;
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
  (* The coarse levels' rows, coarsest first, ahead of the ladder's;
     the newton stage's wall includes theirs. *)
  let report = { report with Report.stages = List.rev_append !levels report.Report.stages } in
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
        start = !start;
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
