(* Perf-regression gate: diff a fresh BENCH_mpde.json against the
   committed bench/baseline.json and fail (exit 1) when any tracked
   metric drifts past its tolerance.

   Usage: compare.exe BASELINE CURRENT [OPTIONS]
     --tolerance T          default relative tolerance (default 0.15)
     --tolerance-wall T     override for mixer.wall_seconds and sweep.wall_1
     --tolerance-speedup T  override for speedup.ratio
     --tolerance-sweep T    override for sweep.speedup_2 / sweep.speedup_4

   Wall-clock metrics are noisy across machines, so CI passes a loose
   --tolerance-wall while keeping iteration counts tight: an iteration
   regression is deterministic and always means the solver changed.
   The sweep speedups additionally depend on the runner's core count
   (a single-core machine can only reach ~1.0), hence their own knob. *)

let usage () =
  prerr_endline
    "usage: compare.exe BASELINE CURRENT [--tolerance T] [--tolerance-wall T] \
     [--tolerance-speedup T] [--tolerance-sweep T]";
  exit 2

let parse_args () =
  let positional = ref [] in
  let tolerance = ref Gate.default_tolerance in
  let overrides = ref [] in
  let rec go = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        tolerance := float_of_string v;
        go rest
    | "--tolerance-wall" :: v :: rest ->
        let t = float_of_string v in
        overrides :=
          ("mixer.wall_seconds", t) :: ("sweep.wall_1", t) :: !overrides;
        go rest
    | "--tolerance-speedup" :: v :: rest ->
        overrides := ("speedup.ratio", float_of_string v) :: !overrides;
        go rest
    | "--tolerance-sweep" :: v :: rest ->
        let t = float_of_string v in
        overrides :=
          ("sweep.speedup_2", t) :: ("sweep.speedup_4", t) :: !overrides;
        go rest
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" -> usage ()
    | arg :: rest ->
        positional := arg :: !positional;
        go rest
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.rev !positional with
  | [ baseline; current ] -> (baseline, current, !tolerance, !overrides)
  | _ -> usage ()

let read_json label file =
  let contents =
    try
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "compare: cannot read %s file %s: %s\n" label file msg;
      exit 2
  in
  try Telemetry.Json.parse contents
  with Telemetry.Json.Parse_error msg ->
    Printf.eprintf "compare: %s file %s is not valid JSON: %s\n" label file msg;
    exit 2

let () =
  let baseline_file, current_file, tolerance, overrides = parse_args () in
  let baseline = read_json "baseline" baseline_file in
  let current = read_json "current" current_file in
  let checks = Gate.default_checks ~overrides tolerance in
  let result = Gate.evaluate ~checks ~baseline ~current () in
  Printf.printf "baseline: %s\ncurrent:  %s\n\n" baseline_file current_file;
  print_string (Gate.render result);
  (* The gate silently waives the absolute speedup floor on single-core
     hosts (there is no parallelism to win); say so, or a passing run on
     a 1-core box looks like the sweep actually cleared the floor. *)
  (match Gate.lookup_num current [ "sweep"; "cores" ] with
  | Some cores when cores < 2.0 ->
      print_string "note: speedup gates skipped: 1-core host\n"
  | _ -> ());
  if not result.Gate.passed then exit 1
