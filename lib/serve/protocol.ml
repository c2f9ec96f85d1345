(* The rfss.jobs/1 wire protocol: one JSON request in a POST body, a
   close-delimited JSONL stream back.

     client                              rfssd
       |  POST /jobs  {"v":"rfss.jobs/1",...}
       |----------------------------------->|
       |   {"event":"accepted","cache":...} |  immediately
       |<-----------------------------------|
       |   {"event":"result",...}           |  when solved (or cached)
       |<-----------------------------------|
       |   {"event":"done"}                 |  then the server closes
       |<-----------------------------------|

   The "accepted" line carries everything that varies between a cache
   hit and a miss (the flag, the job id); the "result" line carries
   only the solve's outcome, so a hit replays the stored result line
   byte for byte — which is the identity the cache tests and the CI
   smoke assert. *)

module J = Telemetry.Json

let version = "rfss.jobs/1"

type job = {
  fixture : Catalog.t;
  engine : Engine.kind;
  f_fast : float;
  fd : float;
  options : Engine.Options.t;
  wall_seconds : float option;
  max_newton_budget : int option;
  warm : bool;
}

let key_of_job job =
  Engine.Key.hash ~label:job.fixture.Catalog.name
    ~engine:(Engine.kind_name job.engine) ~f_fast:job.f_fast ~fd:job.fd
    ~options:job.options

(* ---------- request parsing ---------- *)

let known_option_keys =
  [
    "tol";
    "max_newton";
    "warm_start";
    "steps_per_period";
    "segments";
    "steps_per_segment";
    "harmonics";
    "points";
    "n1";
    "n2";
  ]

type error =
  | Invalid_request of string
  | Bad_option of { name : string; reason : string }

let error_message = function
  | Invalid_request m -> m
  | Bad_option { name; reason } -> Printf.sprintf "option %S %s" name reason

exception Bad of string * string

(* Parse the JSON object [j] with [f], after checking that every key is
   in [known]. The typed field readers below raise [Bad (key, reason)],
   which becomes a [Bad_option] named [prefix ^ key]. *)
let parse_object ~what ~prefix ~known j f =
  match j with
  | J.Obj fields -> (
      try
        (match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
        | Some (k, _) ->
            raise
              (Bad (k, Printf.sprintf "is unknown; known: %s" (String.concat ", " known)))
        | None -> ());
        Ok (f ())
      with Bad (name, reason) -> Error (Bad_option { name = prefix ^ name; reason }))
  | _ -> Error (Invalid_request (Printf.sprintf "%S must be an object" what))

let field_num j name =
  Option.map
    (fun v ->
      match J.num v with Some x -> x | None -> raise (Bad (name, "is not a number")))
    (J.member name j)

(* 2^53: every integer up to here is an exact float, so [int_of_float]
   reads it back exactly. Past [max_int] the conversion is undefined
   (1e30 reads as 0), so larger counts are rejected. *)
let max_exact_int = 9007199254740992.0

(* Counts and sizes must be whole numbers: 2.7 is rejected, not
   truncated. *)
let field_int ?(min = 1) j name =
  Option.map
    (fun x ->
      if not (Float.is_integer x && x >= float_of_int min) then
        raise (Bad (name, Printf.sprintf "must be an integer >= %d" min));
      if x > max_exact_int then raise (Bad (name, "must be at most 2^53"));
      int_of_float x)
    (field_num j name)

let parse_options j (o : Engine.Options.t) =
  parse_object ~what:"options" ~prefix:"" ~known:known_option_keys j @@ fun () ->
  let num name default = Option.value ~default (field_num j name) in
  let int_field ?min name default = Option.value ~default (field_int ?min j name) in
  let bool_field name default =
    match J.member name j with
    | None -> default
    | Some v -> (
        match J.bool v with
        | Some b -> b
        | None -> raise (Bad (name, "is not a bool")))
  in
  let tol = num "tol" o.Engine.Options.tol in
  if tol <= 0.0 then raise (Bad ("tol", "must be > 0"));
  {
    o with
    Engine.Options.tol;
    max_newton = int_field "max_newton" o.Engine.Options.max_newton;
    warm_start = bool_field "warm_start" o.Engine.Options.warm_start;
    steps_per_period =
      int_field "steps_per_period" o.Engine.Options.steps_per_period;
    segments = int_field "segments" o.Engine.Options.segments;
    steps_per_segment =
      int_field "steps_per_segment" o.Engine.Options.steps_per_segment;
    harmonics = int_field "harmonics" o.Engine.Options.harmonics;
    (* Periodic point sets need two points: the periodic-FD collocation
       and each axis of the MPDE grid. *)
    points = int_field ~min:2 "points" o.Engine.Options.points;
    n1 = int_field ~min:2 "n1" o.Engine.Options.n1;
    n2 = int_field ~min:2 "n2" o.Engine.Options.n2;
  }

(* The optional "budget" object: a wall-clock bound in seconds and a
   Newton cap, under the same typed checks as "options". *)
let parse_budget j =
  parse_object ~what:"budget" ~prefix:"budget."
    ~known:[ "wall_seconds"; "max_newton" ] j
  @@ fun () ->
  let wall = field_num j "wall_seconds" in
  (match wall with
  | Some v when not (v > 0.0) -> raise (Bad ("wall_seconds", "must be > 0"))
  | _ -> ());
  (wall, field_int j "max_newton")

let parse_job body =
  match J.parse body with
  | exception J.Parse_error e -> Error (Invalid_request ("invalid JSON: " ^ e))
  | j -> (
      (* Request-level checks fail with a message; [parse_options]
         fails with a typed [Bad_option]. *)
      let ( let* ) r f =
        match r with
        | Ok v -> f v
        | Error m -> Error (Invalid_request m)
      in
      let* () =
        match Option.bind (J.member "v" j) J.str with
        | Some v when v = version -> Ok ()
        | Some v ->
            Error
              (Printf.sprintf "unsupported protocol version %S (this server \
                               speaks %s)" v version)
        | None -> Error (Printf.sprintf "missing \"v\" (expected %S)" version)
      in
      let* name =
        match Option.bind (J.member "circuit" j) J.str with
        | Some name -> Ok name
        | None -> Error "missing \"circuit\""
      in
      let* engine =
        match Option.bind (J.member "engine" j) J.str with
        | Some name -> Engine.kind_of_name name
        | None -> Ok Engine.Mpde
      in
      let float_field name =
        match J.member name j with
        | Some v -> (
            match J.num v with
            | Some x -> Ok (Some x)
            | None -> Error (Printf.sprintf "%S is not a number" name))
        | None -> Ok None
      in
      let* f_fast = float_field "f_fast" in
      let* fd = float_field "fd" in
      let* fixture, f_fast, fd = Catalog.resolve ~engine ?f_fast ?fd name in
      Result.bind
        (match J.member "options" j with
        | Some o -> parse_options o Engine.Options.default
        | None -> Ok Engine.Options.default)
      @@ fun options ->
      Result.bind
        (match J.member "budget" j with
        | Some b -> parse_budget b
        | None -> Ok (None, None))
      @@ fun (wall_seconds, max_newton_budget) ->
      let* warm =
        match J.member "warm" j with
        | None -> Ok true
        | Some v -> (
            match J.bool v with
            | Some b -> Ok b
            | None -> Error "\"warm\" is not a bool")
      in
      Ok
        {
          fixture;
          engine;
          f_fast;
          fd;
          options;
          wall_seconds;
          max_newton_budget;
          warm;
        })

(* ---------- response lines ---------- *)

(* Same float convention as Checkpoint: %.17g, and residuals on failed
   solves (legitimately nan/inf) as quoted strings. *)
let float17 = J.float "%.17g"

let accepted_line ~id ~key ~cache_hit =
  Printf.sprintf "{\"v\":%s,\"event\":\"accepted\",\"id\":%d,\"key\":%s,\"cache\":%s}"
    (J.quote version) id (J.quote key)
    (J.quote (if cache_hit then "hit" else "miss"))

let error_line msg =
  Printf.sprintf "{\"v\":%s,\"event\":\"error\",\"message\":%s}" (J.quote version)
    (J.quote msg)

let done_line ~id =
  Printf.sprintf "{\"v\":%s,\"event\":\"done\",\"id\":%d}" (J.quote version) id

(* The exact CSV the CLI prints for a single solve, so "served" and
   "direct" outputs can be compared byte for byte. *)
let waveform_csv ~output_node (w : Engine.Result.waveform) =
  let b = Buffer.create (Array.length w.Engine.Result.times * 24 + 32) in
  Buffer.add_string b (Printf.sprintf "t,v(%s)\n" output_node);
  Array.iteri
    (fun k t ->
      Buffer.add_string b
        (Printf.sprintf "%.9e,%.6e\n" t w.Engine.Result.values.(k)))
    w.Engine.Result.times;
  Buffer.contents b

let result_line ~key ~warm_started job (r : Engine.Result.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"v\":";
  Buffer.add_string b (J.quote version);
  let field name value =
    Buffer.add_string b ",\"";
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    Buffer.add_string b value
  in
  field "event" "\"result\"";
  field "key" (J.quote key);
  field "label" (J.quote r.Engine.Result.label);
  field "engine" (J.quote (Engine.kind_name r.Engine.Result.kind));
  field "converged" (string_of_bool r.Engine.Result.converged);
  field "newton" (string_of_int r.Engine.Result.newton_iterations);
  field "residual" (float17 r.Engine.Result.residual_norm);
  field "wall_seconds" (float17 r.Engine.Result.wall_seconds);
  field "warm_started" (string_of_bool warm_started);
  field "metrics"
    ("{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s:%s" (J.quote k) (float17 v))
           r.Engine.Result.metrics)
    ^ "}");
  field "waveform_csv"
    (J.quote
       (waveform_csv ~output_node:job.fixture.Catalog.output_node
          r.Engine.Result.waveform));
  Buffer.add_char b '}';
  Buffer.contents b
