(* [summarize A B]: compare two sets of runs — the result files that
   runs wrote to two --out directories — metric by metric and workload
   by workload: each side's median and quartiles, the change of the
   medians, and for end-to-end metrics whether B stays within the
   metric's bound of A. Exit status 1 when any metric is worse by more
   than its bound. *)

module J = Diagnostics.Json_min

(* (workload, traced, metric values) of every result file in [dir]:
   files named <workload>.seed<N>.trace<0|1>.json. *)
let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun file ->
         match String.split_on_char '.' file with
         | [ workload; seed; trace; "json" ]
           when String.starts_with ~prefix:"seed" seed && String.starts_with ~prefix:"trace" trace -> (
             let text = In_channel.with_open_text (Filename.concat dir file) In_channel.input_all in
             let last =
               List.fold_left
                 (fun acc l -> if String.trim l = "" then acc else l)
                 "" (String.split_on_char '\n' text)
             in
             match J.member "metrics" (J.parse last) with
             | Some (J.Obj ms) ->
                 let values =
                   List.filter_map
                     (fun (name, m) ->
                       Option.map (fun v -> (name, v)) (Option.bind (J.member "value" m) J.num))
                     ms
                 in
                 Some (workload, trace = "trace1", values)
             | _ | (exception J.Parse_error _) -> None)
         | _ -> None)

let describe values =
  let n = Array.length values in
  let med = Stats.median values in
  let q1, q3 = if n >= 2 then (let q = Stats.quartiles values in (q.(0), q.(2))) else (med, med) in
  (med, q1, q3, n)

let run dir_a dir_b =
  let a = load dir_a and b = load dir_b in
  let values set workload traced name =
    List.filter_map
      (fun (w, t, ms) -> if w = workload && t = traced then List.assoc_opt name ms else None)
      set
    |> Array.of_list
  in
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _) -> w) (a @ b)) in
  let regressions = ref 0 in
  Printf.printf "%-17s %-34s %-36s %-36s %8s  %s\n" "workload" "metric"
    "A: median [q1, q3] n" "B: median [q1, q3] n" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (traced, catalog) ->
          List.iter
            (fun (d : Metrics.t) ->
              let va = values a workload traced d.Metrics.name
              and vb = values b workload traced d.Metrics.name in
              if Array.length va > 0 && Array.length vb > 0 then begin
                let ((ma, _, _, _) as sa) = describe va and ((mb, _, _, _) as sb) = describe vb in
                let cell (m, q1, q3, n) = Printf.sprintf "%.4g [%.4g, %.4g] %d" m q1 q3 n in
                let worse = if ma = 0.0 then 0.0 else Metrics.worse_by d ~base:ma mb in
                let spread (m, q1, q3, _) = if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m in
                let verdict =
                  match d.Metrics.bound with
                  | None -> "-"
                  | Some bound when spread sa > bound || spread sb > bound ->
                      Printf.sprintf "unresolved: spread above %.0f%% bound" (100.0 *. bound)
                  | Some bound when worse > bound ->
                      incr regressions;
                      Printf.sprintf "WORSE than %.0f%% bound" (100.0 *. bound)
                  | Some bound -> Printf.sprintf "within %.0f%% bound" (100.0 *. bound)
                in
                Printf.printf "%-17s %-34s %-36s %-36s %+7.1f%%  %s\n" workload d.Metrics.name
                  (cell sa) (cell sb) (100.0 *. (mb -. ma) /. Float.abs (if ma = 0.0 then 1.0 else ma))
                  verdict
              end)
            catalog)
        [ (false, Metrics.end_to_end); (true, Metrics.per_layer) ])
    workloads;
  if !regressions > 0 then 1 else 0
