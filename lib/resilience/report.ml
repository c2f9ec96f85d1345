type outcome =
  | Converged
  | Failed of string
  | Exhausted of Budget.exhaustion

type stage = {
  name : string;
  status : [ `Success | `Failed of string | `Skipped ];
  iterations : int;
  wall_seconds : float;
}

type t = {
  outcome : outcome;
  strategy : string option;
  stages : stage list;
  residual_trajectory : float array;
  residual_norm : float;
  newton_iterations : int;
  linear_iterations : int;
  wall_seconds : float;
  telemetry : Telemetry.Summary.t option;
  sections : (string * string) list;
}

let add_section r name json = { r with sections = r.sections @ [ (name, json) ] }

let outcome_to_string = function
  | Converged -> "converged"
  | Failed msg -> "failed: " ^ msg
  | Exhausted e -> "exhausted: " ^ Budget.exhaustion_to_string e

let of_ladder ?(iterations_of = fun _ -> 0) ?telemetry ~residual_trajectory
    ~residual_norm ~newton_iterations ~linear_iterations ~wall_seconds
    (run : _ Ladder.run) =
  let outcome =
    match (run.Ladder.value, run.Ladder.last_failure) with
    | Some _, _ -> Converged
    | None, Some (Ladder.Exhausted e) -> Exhausted e
    | None, Some f -> Failed (Format.asprintf "%a" Ladder.pp_failure f)
    | None, None -> Failed "no applicable strategy"
  in
  let stages =
    List.map
      (fun { Ladder.stage; status; wall_seconds } ->
        { name = stage; status; iterations = iterations_of stage; wall_seconds })
      run.Ladder.records
  in
  {
    outcome;
    strategy = run.Ladder.strategy;
    stages;
    residual_trajectory;
    residual_norm;
    newton_iterations;
    linear_iterations;
    wall_seconds;
    telemetry;
    sections = [];
  }

let status_to_string = function
  | `Success -> "success"
  | `Failed _ -> "failed"
  | `Skipped -> "skipped"

let to_json_string r =
  let module J = Telemetry.Json in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\"outcome\":%s" (J.quote (outcome_to_string r.outcome));
  (match r.strategy with
  | Some s -> add ",\"strategy\":%s" (J.quote s)
  | None -> add ",\"strategy\":null");
  add ",\"newton_iterations\":%d,\"linear_iterations\":%d" r.newton_iterations
    r.linear_iterations;
  add ",\"residual_norm\":%s,\"wall_seconds\":%.3f" (J.float "%.6e" r.residual_norm)
    r.wall_seconds;
  add ",\"stages\":[";
  List.iteri
    (fun i s ->
      if i > 0 then add ",";
      add "{\"name\":%s,\"status\":\"%s\"" (J.quote s.name)
        (status_to_string s.status);
      (match s.status with
      | `Failed msg -> add ",\"error\":%s" (J.quote msg)
      | _ -> ());
      add ",\"iterations\":%d,\"wall_seconds\":%.3f}" s.iterations s.wall_seconds)
    r.stages;
  add "],\"residual_trajectory\":[";
  Array.iteri
    (fun i f ->
      if i > 0 then add ",";
      add "%s" (J.float "%.6e" f))
    r.residual_trajectory;
  add "]";
  (match r.telemetry with
  | Some t ->
      add ",\"telemetry\":";
      Telemetry.Summary.add_json buf t
  | None -> ());
  List.iter
    (fun (name, json) ->
      add ",%s:" (J.quote name);
      Buffer.add_string buf json)
    r.sections;
  add "}";
  Buffer.contents buf
