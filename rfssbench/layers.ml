(* Per-layer metrics folded from the span trees and counters Telemetry
   already records, plus the span-accounting identity check. Nothing
   here adds spans inside the library: the harness only wraps each
   operation in a "bench.op" span and reads what the layers record. *)

module S = Telemetry.Summary

(* Total wall and calls of the spans named in [names] anywhere under
   [n]; a matching span's subtree is not searched again, so nested
   matches never count twice. *)
let rec span_total names (n : S.node) =
  if List.mem n.S.name names then (n.S.wall, n.S.calls)
  else
    List.fold_left
      (fun (w, c) child ->
        let w', c' = span_total names child in
        (w +. w', c + c'))
      (0.0, 0) n.S.children

let total (sums : S.t list) names =
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc root -> acc +. fst (span_total names root)) acc s.S.roots)
    0.0 sums

let calls (sums : S.t list) name =
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc root -> acc + snd (span_total [ name ] root)) acc s.S.roots)
    0 sums

let counter (sums : S.t list) name =
  List.fold_left
    (fun acc s -> acc + Option.value (List.assoc_opt name s.S.counters) ~default:0)
    0 sums
  |> float_of_int

(* Mean of a gauge over the summaries that recorded it. *)
let gauge_mean (sums : S.t list) name =
  let vs = List.filter_map (fun s -> List.assoc_opt name s.S.gauges) sums in
  if vs = [] then 0.0 else Stats.mean (Array.of_list vs)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Solver-layer metrics per Engine.run call, from the span summaries of
   traced operations. [op_wall] is the same operations' total wall as
   timed from outside the layer. *)
let solver_metrics (sums : S.t list) ~op_wall =
  let runs = float_of_int (max 1 (calls sums "engine.run")) in
  let per_run names = total sums names /. runs in
  let count name = counter sums name /. runs in
  let run_wall = total sums [ "engine.run" ] in
  let seeded = counter sums "gmres.recycle_seeded" in
  let rejected = counter sums "gmres.recycle_rejected" in
  [
    ("engine.run_s", run_wall /. runs);
    ("engine.run_overhead_s", (op_wall -. run_wall) /. runs);
    ("mpde.solve_s", per_run [ "mpde.solve" ]);
    ( "mpde.linear_s",
      per_run [ "mpde.linear.gmres-sweep"; "mpde.linear.gmres-ilu0"; "mpde.linear.direct" ] );
    ("mpde.continuation_steps", count "continuation.steps");
    ( "mpde.assemble.jacobians_s",
      per_run [ "mpde.assemble.jacobians"; "mpde.assemble.jacobian_csr" ] );
    ("mpde.assemble.residual_s", per_run [ "mpde.assemble.residual" ]);
    ("mpde.precond.build_s", per_run [ "mpde.precond.build" ]);
    ("mpde.precond.refresh_s", per_run [ "mpde.precond.refresh" ]);
    ("mpde.precond.sweeps", count "mpde.precond.sweeps");
    ("mpde.precond.lag_rebuilds", count "mpde.precond.lag_rebuilds");
    ("mpde.precond.cluster_reps", gauge_mean sums "mpde.precond.cluster_reps");
    ("sparse.krylov.gmres_s", per_run [ "gmres" ]);
    ("sparse.krylov.iterations", count "gmres.iterations");
    ("sparse.krylov.restarts", count "gmres.restarts");
    ("sparse.krylov.stalls", count "gmres.stalls");
    ("sparse.krylov.recycle_accept_frac", ratio seeded (seeded +. rejected));
    ("linalg.lu.factors", count "lu.dense_factors");
    ("linalg.lu.solve_calls", count "lu.dense_solves");
    ( "linalg.lu.cols_per_call",
      ratio (counter sums "lu.dense_solve_columns") (counter sums "lu.dense_solves") );
    ("numeric.newton.iterations", count "newton.iterations");
    ("numeric.newton.backtracks", count "newton.backtracks");
    ("numeric.newton.residual_s", per_run [ "newton.residual" ]);
    ("circuit.dcop.solve_s", per_run [ "dcop.solve" ]);
    ("steady.shooting.integrate_s", per_run [ "shooting.integrate" ]);
    ("sparse.splu.factors", count "splu.factors");
    ("telemetry.alloc.minor_words_per_op", gauge_mean sums "alloc.job.minor_words");
  ]

(* ---------- accounting identity ---------- *)

(* Length of the union of [intervals], clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let sorted = List.sort compare intervals in
  let total, last_start, last_end =
    List.fold_left
      (fun (acc, s, e) (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b <= a then (acc, s, e)
        else if a > e then (acc +. (e -. s), a, b)
        else (acc, s, Float.max e b))
      (0.0, lo, lo) sorted
  in
  total +. (last_end -. last_start)

type frame = { id : int; name : string; start : float; mutable children : (float * float) list }

(* Check, for every span of [snap], that Σ(child wall) + self = wall
   within [tol] of the wall, where self is the part of the span no
   child covers. It fails when children overlap each other or stick out
   of their parent — when the tree double-counts or loses time — and
   when spans do not nest. Root spans must likewise fit in the
   snapshot's duration. Returns one message per violation. *)
let identity_errors ?(tol = 0.01) (snap : Telemetry.snapshot) =
  let errors = ref [] in
  let error msg = errors := msg :: !errors in
  let check name ~wall spans =
    let sum = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 spans in
    let self = wall -. covered ~lo:0.0 ~hi:wall spans in
    if Float.abs (sum +. self -. wall) > (tol *. wall) +. 1e-9 then
      error (Printf.sprintf "%s: children %.6fs + self %.6fs <> wall %.6fs" name sum self wall)
  in
  let stack = ref [] and roots = ref [] in
  Array.iter
    (function
      | Telemetry.Span_begin { id; name; wall; _ } ->
          stack := { id; name; start = wall; children = [] } :: !stack
      | Telemetry.Span_end { id; name; wall; _ } -> (
          match !stack with
          | f :: rest when f.id = id ->
              (* Child intervals relative to the parent's start. *)
              check f.name ~wall:(wall -. f.start)
                (List.map (fun (a, b) -> (a -. f.start, b -. f.start)) f.children);
              stack := rest;
              (match rest with
              | p :: _ -> p.children <- (f.start, wall) :: p.children
              | [] -> roots := (f.start, wall) :: !roots)
          | _ -> error (Printf.sprintf "span %s does not nest" name)))
    snap.Telemetry.events;
  if !stack <> [] then error "unclosed span";
  check "(snapshot)" ~wall:snap.Telemetry.duration !roots;
  List.rev !errors
