(* The shape shared by paper-mixer and bridge-rectifier: one solve at a
   time on the calling domain through Engine.run, over a seeded cycle
   of inputs. *)

type spec = {
  name : string;
  inputs : int;  (** length of the input cycle; input [i] is used by solve [i mod inputs] *)
  setup : unit -> unit -> string list;
      (** one complete set-up; returns its deferred correctness check *)
  setup_reps : int;  (** set-ups per run *)
  solve : int -> Engine.Result.t;  (** solve input [i] *)
  check : int -> Engine.Result.t -> string list;  (** check the result of input [i] *)
  max_traced : int;
}

let end_to_end (cfg : Harness.config) spec ck ~setup =
  let l =
    Harness.timed_loop ~cycle:spec.inputs ~seconds:cfg.Harness.seconds ~op:spec.solve
      ~after:(fun i r -> Harness.record ck (spec.check i r))
      ()
  in
  Harness.end_to_end ~latency:(Harness.scaled_latency l.Harness.walls l.Harness.probes) ~setup

(* Each input is solved twice in a row, untraced (even k) then traced
   (odd k), so tracing overhead is measured against an identical twin. *)
let per_layer (cfg : Harness.config) spec ck ~monitor =
  let traced = ref [] in
  let op k =
    let i = k / 2 in
    if k mod 2 = 0 then spec.solve i
    else begin
      let r, wall, part =
        Harness.traced ~thread_name:"main" ~label:(Printf.sprintf "%s #%d" spec.name i)
          (fun () -> spec.solve i)
      in
      traced := (r, wall, part) :: !traced;
      r
    end
  in
  let l =
    Harness.timed_loop ~cycle:2 ~seconds:cfg.Harness.seconds ~op
      ~stop:(fun k -> k / 2 >= spec.max_traced)
      ~after:(fun k r -> Harness.record ck (spec.check (k / 2) r))
      ()
  in
  let traced = List.rev !traced in
  let parts = List.filter_map (fun (_, _, p) -> p) traced in
  List.iter
    (fun (p : Telemetry.Merge.part) ->
      Harness.record ck (Layers.identity_errors p.Telemetry.Merge.snapshot))
    parts;
  let sums =
    List.map (fun (p : Telemetry.Merge.part) -> Telemetry.Summary.of_snapshot p.snapshot) parts
  in
  let traced_walls = Array.of_list (List.map (fun (_, w, _) -> w) traced) in
  let even a = Array.of_list (List.filteri (fun k _ -> k mod 2 = 0) (Array.to_list a)) in
  let untraced = even l.walls in
  let op_wall = Array.fold_left ( +. ) 0.0 traced_walls in
  Harness.write_trace cfg ~workload:spec.name
    ~summary:
      [
        ("schema", Diagnostics.Json_min.Str "rfssbench.trace/1");
        ("workload", Diagnostics.Json_min.Str spec.name);
        ("wall_seconds", Diagnostics.Json_min.Num op_wall);
        ("domains", Diagnostics.Json_min.Num 1.0);
      ]
    parts;
  let kernels =
    match List.rev traced with
    | ({ Engine.Result.mpde_solution = Some sol; _ }, _, _) :: _ -> Probe.kernels sol
    | _ -> []
  in
  Layers.solver_metrics sums ~op_wall
  @ kernels
  @ Harness.gc_metrics monitor ~ops:(Array.length l.walls)
  @ Harness.resource_metrics ~cpu_per_op:(Stats.median (even l.cpus))
  @ Harness.host_metrics ~walls:untraced ~probes:(even l.probes)
  @ [
      ("bench.gen_late_p99_s", Stats.quantile l.gaps 0.99);
      ( "bench.trace_overhead_frac",
        (Stats.median traced_walls /. Stats.median untraced) -. 1.0 );
      ("bench.op_s_p90", Stats.quantile untraced 0.9);
      ("bench.ops_traced", float_of_int (Array.length traced_walls));
    ]

let run (cfg : Harness.config) spec =
  let ck = Harness.checks () in
  let monitor = if cfg.Harness.trace then Telemetry.Runtime.start () else None in
  let pending, setup =
    Harness.setup_repeated cfg ~reps:spec.setup_reps
      ~dispose:(fun check -> Harness.record ck (check ()))
      spec.setup
  in
  Harness.record ck (pending ());
  let metrics =
    if cfg.Harness.trace then per_layer cfg spec ck ~monitor
    else end_to_end cfg spec ck ~setup
  in
  Harness.report ck metrics
