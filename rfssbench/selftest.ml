(* [selftest BENCHMARK.json]: the benchmark's own checks, run by
   [dune runtest] — seeded generators are deterministic, metric names
   and units are well formed, the harness and BENCHMARK.json declare
   the same workloads and metrics, the accounting-identity checker
   accepts a well-nested tree and rejects broken ones, and every
   workload completes a toy-size run in both modes. *)

module J = Diagnostics.Json_min

let failures = ref []

let check what cond = if not cond then failures := what :: !failures

let generators () =
  let jobs seed =
    Array.map
      (fun (j : Gen.sweep_job) -> (j.Gen.label, j.Gen.fd))
      (Gen.sweep_jobs ~seed ~points:8 ~gilberts:4 ())
  in
  let traffic seed = Gen.served_traffic ~seed ~pool_size:16 ~count:200 in
  let patterns = Gen.mixer_patterns ~seed:7 in
  check "mixer patterns are deterministic" (patterns = Gen.mixer_patterns ~seed:7);
  check "mixer patterns follow the seed" (patterns <> Gen.mixer_patterns ~seed:8);
  check "62 non-constant mixer patterns"
    (Array.length patterns = 62
    && Array.for_all (fun p -> Array.exists Fun.id p && Array.exists not p) patterns);
  check "sweep jobs are deterministic" (jobs 7 = jobs 7);
  check "sweep jobs follow the seed" (jobs 7 <> jobs 8);
  check "20 sweep jobs" (Array.length (jobs 7) = 20);
  check "served traffic is deterministic" (traffic 7 = traffic 7);
  check "served traffic follows the seed" (traffic 7 <> traffic 8);
  let pool, requests = traffic 7 in
  let count kind = Array.fold_left (fun n r -> if r.Gen.kind = kind then n + 1 else n) 0 requests in
  check "served traffic is 50 % repeats, 25 % near, 25 % fresh"
    (count Gen.Repeat = 100 && count Gen.Near = 50 && count Gen.Fresh = 50);
  (* Keys are introduced in order, and a repeat uses a key last used
     between Gen.recent_min and Gen.recent_max requests earlier. *)
  let last_use = Hashtbl.create 64 in
  Array.iteri (fun k _ -> Hashtbl.replace last_use k (k - Array.length pool)) pool;
  let next = ref (Array.length pool) in
  Array.iteri
    (fun i r ->
      (match r.Gen.kind with
      | Gen.Repeat ->
          let age = i - Hashtbl.find last_use r.Gen.key in
          check "served repeats reuse a recent key" (age >= Gen.recent_min && age <= Gen.recent_max)
      | Gen.Near | Gen.Fresh ->
          check "served new keys are numbered in order" (r.Gen.key = !next);
          incr next);
      Hashtbl.replace last_use r.Gen.key i)
    requests

let names () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (d : Metrics.t) ->
      check ("metric name " ^ d.Metrics.name) (Metrics.valid_name d.Metrics.name);
      check ("unit of " ^ d.Metrics.name) (Metrics.valid_unit d.Metrics.unit_))
    all;
  check "metric names are unique"
    (List.length (List.sort_uniq compare (List.map (fun d -> d.Metrics.name) all))
    = List.length all);
  let bound d = Option.value d.Metrics.bound ~default:Float.nan in
  check "every end-to-end metric has a bound in (0, 0.25]"
    (List.for_all (fun d -> bound d > 0.0 && bound d <= 0.25) Metrics.end_to_end);
  check "setup_s has the largest bound"
    (List.for_all
       (fun d -> bound d <= bound (Option.get (Metrics.find "setup_s")))
       Metrics.end_to_end);
  check "setup_s is an end-to-end metric in s, lower is better"
    (List.exists
       (fun d -> d.Metrics.name = "setup_s" && d.Metrics.unit_ = "s" && d.Metrics.better = Metrics.Lower)
       Metrics.end_to_end);
  check "at most 128 per-layer metrics" (List.length Metrics.per_layer <= 128)

(* BENCHMARK.json and the harness must declare the same workloads and
   metrics, in both directions. *)
let declaration ~benchmark_json ~workloads =
  let j = J.parse (In_channel.with_open_text benchmark_json In_channel.input_all) in
  let list key = match J.member key j with Some (J.Arr l) -> l | _ -> [] in
  let str key o = Option.bind (J.member key o) J.str in
  let declared = List.filter_map (str "name") (list "workloads") in
  check "BENCHMARK.json workloads = harness workloads"
    (List.sort compare declared = List.sort compare (List.map fst workloads));
  check "every workload says why" (List.for_all (fun w -> str "why" w <> None) (list "workloads"));
  let described ~bound key catalog =
    let entry (d : Metrics.t) =
      [ ("name", J.Str d.Metrics.name); ("unit", J.Str d.Metrics.unit_);
        ("better", J.Str (Metrics.better_string d.Metrics.better)) ]
      @ if bound then [ ("bound", J.Num (Option.value d.Metrics.bound ~default:0.0)) ] else []
    in
    let norm = function J.Obj fields -> J.Obj (List.sort compare fields) | x -> x in
    check
      (Printf.sprintf "BENCHMARK.json %s = harness %s" key key)
      (List.sort compare (List.map norm (list key))
      = List.sort compare (List.map (fun d -> norm (J.Obj (entry d))) catalog))
  in
  described ~bound:true "end_to_end" Metrics.end_to_end;
  described ~bound:false "per_layer" Metrics.per_layer

(* A snapshot from a list of (begin | end, id, name, time) events, in
   log order. *)
let snapshot events duration =
  let ev (kind, id, name, wall) =
    if kind = `B then Telemetry.Span_begin { id; parent = -1; name; wall; cpu = 0.0 }
    else Telemetry.Span_end { id; name; wall; cpu = 0.0 }
  in
  { Telemetry.events = Array.of_list (List.map ev events); duration; counters = []; gauges = [];
    histograms = [] }

let identity () =
  (* root [0,10] holding a [1,4] and b [5,9], b holding c [6,7] *)
  let ok =
    [ (`B, 0, "root", 0.0); (`B, 1, "a", 1.0); (`E, 1, "a", 4.0); (`B, 2, "b", 5.0);
      (`B, 3, "c", 6.0); (`E, 3, "c", 7.0); (`E, 2, "b", 9.0); (`E, 0, "root", 10.0) ]
  in
  check "identity holds on a well-nested tree" (Layers.identity_errors (snapshot ok 10.0) = []);
  let overlapping =
    [ (`B, 0, "root", 0.0); (`B, 1, "a", 1.0); (`E, 1, "a", 6.0); (`B, 2, "b", 5.0);
      (`E, 2, "b", 9.0); (`E, 0, "root", 10.0) ]
  in
  check "identity fails on overlapping children"
    (Layers.identity_errors (snapshot overlapping 10.0) <> []);
  let crossed =
    [ (`B, 0, "root", 0.0); (`B, 1, "a", 1.0); (`B, 2, "b", 5.0); (`E, 1, "a", 6.0);
      (`E, 2, "b", 9.0); (`E, 0, "root", 10.0) ]
  in
  check "identity fails on spans that do not nest" (Layers.identity_errors (snapshot crossed 10.0) <> []);
  check "identity fails when roots outlast the snapshot" (Layers.identity_errors (snapshot ok 5.0) <> [])

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Toy-size run of every workload in both modes: correct, every
   end-to-end metric reported, every per-layer metric reported by some
   workload, and a trace that parses. *)
let smoke ~workloads =
  let out_dir = "rfssbench-selftest" in
  let per_layer_seen = Hashtbl.create 64 in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun trace ->
          let cfg = { Harness.seed = 1; seconds = 0.05; trace; out_dir; toy = true } in
          let mode = if trace then "traced" else "untraced" in
          match run cfg with
          | exception e ->
              check (Printf.sprintf "%s %s toy run raised %s" name mode (Printexc.to_string e)) false
          | (r : Harness.report) ->
              check
                (Printf.sprintf "%s %s toy run is correct (%s)" name mode
                   (String.concat "; " r.Harness.failures))
                (r.Harness.failed = 0 && r.Harness.attempted > 0);
              if trace then begin
                List.iter (fun (m, _) -> Hashtbl.replace per_layer_seen m ()) r.Harness.metrics;
                let file = Filename.concat out_dir (name ^ ".trace.json") in
                check (name ^ " trace parses")
                  (match J.member "traceEvents" (J.parse (In_channel.with_open_text file In_channel.input_all)) with
                  | Some (J.Arr (_ :: _)) -> true
                  | _ | (exception _) -> false)
              end
              else
                List.iter
                  (fun (d : Metrics.t) ->
                    check
                      (Printf.sprintf "%s reports %s, finite and above 0" name d.Metrics.name)
                      (match List.assoc_opt d.Metrics.name r.Harness.metrics with
                      | Some v -> Float.is_finite v && v > 0.0
                      | None -> false))
                  Metrics.end_to_end)
        [ false; true ])
    workloads;
  List.iter
    (fun (d : Metrics.t) ->
      check (d.Metrics.name ^ " is reported by some workload") (Hashtbl.mem per_layer_seen d.Metrics.name))
    Metrics.per_layer;
  if Sys.file_exists out_dir then remove out_dir

let run ~benchmark_json ~workloads =
  generators ();
  names ();
  declaration ~benchmark_json ~workloads;
  identity ();
  smoke ~workloads;
  match List.rev !failures with
  | [] ->
      print_endline "rfssbench selftest: ok";
      0
  | fs ->
      List.iter (fun f -> prerr_endline ("rfssbench selftest FAILED: " ^ f)) fs;
      1
