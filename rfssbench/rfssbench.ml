(* rfssbench — the benchmark's entry point. See README.md.

     rfssbench --workload NAME|all --seed N --seconds S --trace 0|1 [--out DIR]
     rfssbench summarize DIR_A DIR_B
     rfssbench selftest BENCHMARK.json *)

module J = Diagnostics.Json_min

let workloads =
  [
    (Paper_mixer.name, Paper_mixer.run);
    (Bridge_rectifier.name, Bridge_rectifier.run);
    (Disparity_sweep.name, Disparity_sweep.run);
    (Served_mix.name, Served_mix.run);
  ]

let metric_names ~trace =
  List.map (fun d -> d.Metrics.name) (if trace then Metrics.per_layer else Metrics.end_to_end)

let result_file dir ~workload ~seed ~trace =
  Filename.concat dir (Printf.sprintf "%s.seed%d.trace%d.json" workload seed (Bool.to_int trace))

(* Run one workload in this process; the result line is the last line
   of standard output. *)
let run_one (cfg : Harness.config) workload =
  let r = (List.assoc workload workloads) cfg in
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) r.Harness.failures;
  let line = J.to_string (Harness.result_json r ~names:(metric_names ~trace:cfg.Harness.trace)) in
  (try
     Harness.mkdir_p cfg.Harness.out_dir;
     Out_channel.with_open_text
       (result_file cfg.Harness.out_dir ~workload ~seed:cfg.Harness.seed ~trace:cfg.Harness.trace)
       (fun oc -> output_string oc (line ^ "\n"))
   with Sys_error e -> prerr_endline ("cannot save the result: " ^ e));
  print_endline line;
  if r.Harness.failed = 0 && r.Harness.attempted > 0 then 0 else 1

(* Run every workload, each in its own child process, and print every
   metric by name with its unit. *)
let run_all (cfg : Harness.config) =
  let rows = ref [] and correct = ref true and attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun (workload, _) ->
      let args =
        [|
          Sys.executable_name; "--workload"; workload; "--seed"; string_of_int cfg.Harness.seed;
          "--seconds"; Printf.sprintf "%g" cfg.Harness.seconds; "--trace";
          (if cfg.Harness.trace then "1" else "0"); "--out"; cfg.Harness.out_dir;
        |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
      match (Unix.close_process_in ic, List.rev lines) with
      | Unix.WEXITED (0 | 1), last :: _ -> (
          let j = J.parse last in
          let num k = Option.value (Option.bind (J.member k j) J.num) ~default:0.0 in
          if J.member "correct" j <> Some (J.Bool true) then correct := false;
          attempted := !attempted + int_of_float (num "attempted");
          failed := !failed + int_of_float (num "failed");
          match J.member "metrics" j with
          | Some (J.Obj ms) ->
              List.iter
                (fun (name, m) ->
                  let value = Option.bind (J.member "value" m) J.num in
                  let unit_ = Option.value (Option.bind (J.member "unit" m) J.str) ~default:"" in
                  Printf.printf "%-18s %-36s %16s %s\n" workload name
                    (match value with Some v -> Printf.sprintf "%.6g" v | None -> "null")
                    unit_;
                  rows := (workload ^ "." ^ name, m) :: !rows)
                ms
          | _ -> ())
      | _ ->
          Printf.printf "%-18s failed to run\n" workload;
          correct := false)
    workloads;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool !correct);
            ("attempted", J.Num (float_of_int !attempted));
            ("failed", J.Num (float_of_int !failed));
            ("metrics", J.Obj (List.rev !rows));
          ]));
  if !correct then 0 else 1

let main_run argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref (Filename.concat "_build" "rfssbench") in
  Arg.parse_argv argv
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer metrics of a traced pass");
      ("--out", Arg.Set_string out_dir, "DIR where traces and result files go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rfssbench --workload NAME|all --seed N --seconds S --trace 0|1 [--out DIR]";
  let cfg =
    { Harness.seed = !seed; seconds = !seconds; trace = !trace = 1; out_dir = !out_dir; toy = false }
  in
  if !workload = "all" then run_all cfg
  else if List.mem_assoc !workload workloads then run_one cfg !workload
  else begin
    Printf.eprintf "unknown workload %S; try: all, %s\n" !workload
      (String.concat ", " (List.map fst workloads));
    2
  end

let () =
  let code =
    match Array.to_list Sys.argv with
    | _ :: "summarize" :: a :: b :: _ -> Summarize.run a b
    | _ :: "selftest" :: benchmark_json :: _ -> Selftest.run ~benchmark_json ~workloads
    | _ -> (
        try main_run Sys.argv
        with Arg.Bad msg | Arg.Help msg ->
          prerr_string msg;
          2)
  in
  exit code
