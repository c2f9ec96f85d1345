(* Tests for the persistent solve service (lib/serve) and the public
   Engine.Key it is built on: canonical key stability (a pinned
   literal catches encoding drift) and sensitivity, LRU result-cache
   semantics, the Catalog tone validator, rfss.jobs/1 request parsing,
   byte identity between a served waveform CSV and a direct
   Engine.run, cache-hit replay of an identical resubmission, and warm-start sharing (a cache-near point
   must converge in fewer Newton iterations than a cold solve). *)

module J = Telemetry.Json

let default = Engine.Options.default

let fixture_exn name =
  match Serve.Catalog.find name with Ok f -> f | Error e -> failwith e

(* ---------- Engine.Key ---------- *)

(* Pinned literal: if this changes, the encoding changed and the key
   version must be bumped (see lib/engine/key.mli). *)
let test_key_stability () =
  Alcotest.(check string)
    "pinned key literal" "b414458d45afe627"
    (Engine.Key.hash ~label:"balanced-mixer" ~engine:"mpde" ~f_fast:450e6
       ~fd:15e3 ~options:default)

(* The key a default rc/mpde rfss.jobs/1 request is cached and resumed
   under, pinned: a served request must keep hitting the entries its
   predecessors stored. *)
let test_default_job_key () =
  match Serve.Protocol.parse_job {|{"v":"rfss.jobs/1","circuit":"rc","engine":"mpde"}|} with
  | Ok job ->
      Alcotest.(check string) "default rc/mpde job key" "1b762baff61b3308"
        (Serve.Protocol.key_of_job job)
  | Error e -> Alcotest.fail (Serve.Protocol.error_message e)

let test_key_sensitivity () =
  let base = Engine.Key.hash ~label:"rc" ~engine:"mpde" ~f_fast:1e6 ~fd:1e3 in
  let k0 = base ~options:default in
  let differs what k =
    Alcotest.(check bool) (what ^ " changes the key") false (k = k0)
  in
  differs "label"
    (Engine.Key.hash ~label:"rc2" ~engine:"mpde" ~f_fast:1e6 ~fd:1e3
       ~options:default);
  differs "engine"
    (Engine.Key.hash ~label:"rc" ~engine:"hb" ~f_fast:1e6 ~fd:1e3
       ~options:default);
  differs "f_fast"
    (Engine.Key.hash ~label:"rc" ~engine:"mpde" ~f_fast:(1e6 +. 1.0) ~fd:1e3
       ~options:default);
  differs "fd"
    (Engine.Key.hash ~label:"rc" ~engine:"mpde" ~f_fast:1e6 ~fd:1001.0
       ~options:default);
  differs "tol" (base ~options:{ default with Engine.Options.tol = 1e-6 });
  differs "max_newton"
    (base ~options:{ default with Engine.Options.max_newton = 49 });
  differs "warm_start"
    (base ~options:{ default with Engine.Options.warm_start = false });
  differs "n1" (base ~options:{ default with Engine.Options.n1 = 33 });
  differs "n2" (base ~options:{ default with Engine.Options.n2 = 25 });
  differs "points" (base ~options:{ default with Engine.Options.points = 65 });
  differs "harmonics"
    (base ~options:{ default with Engine.Options.harmonics = 9 });
  (* Budget and warm-start seed change how fast a solve converges, not
     what it converges to: same key, so a warm resubmission hits the
     entry its cold twin populated. *)
  let same what k =
    Alcotest.(check string) (what ^ " does not change the key") k0 k
  in
  same "budget"
    (base
       ~options:
         {
           default with
           Engine.Options.budget =
             Some (Resilience.Budget.make ~wall_seconds:1.0 ());
         });
  same "initial_surface"
    (base
       ~options:
         {
           default with
           Engine.Options.initial_surface = Some (Array.make 8 0.1);
         })

(* ---------- Cache: LRU semantics ---------- *)

let test_cache_lru () =
  let c = Serve.Cache.create ~capacity:2 in
  Serve.Cache.add c "k1" "v1";
  Serve.Cache.add c "k2" "v2";
  (* A hit promotes k1 to most-recently-used... *)
  Alcotest.(check bool) "k1 hit" true (Serve.Cache.find c "k1" = Some "v1");
  (* ...so inserting k3 over capacity evicts k2, not k1. *)
  Serve.Cache.add c "k3" "v3";
  Alcotest.(check (list string)) "MRU order" [ "k3"; "k1" ] (Serve.Cache.keys c);
  Alcotest.(check bool) "k2 evicted" true (Serve.Cache.find c "k2" = None);
  Alcotest.(check bool) "k1 kept" true (Serve.Cache.find c "k1" = Some "v1");
  let s = Serve.Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Serve.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Serve.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Serve.Cache.evictions;
  Alcotest.(check int) "entries" 2 s.Serve.Cache.entries;
  (* Refreshing an existing key replaces in place. *)
  Serve.Cache.add c "k1" "v1'";
  Alcotest.(check int) "refresh keeps size" 2
    (Serve.Cache.stats c).Serve.Cache.entries;
  Alcotest.(check bool) "refreshed value" true
    (Serve.Cache.find c "k1" = Some "v1'")

(* ---------- Catalog.resolve: the one tone validator ---------- *)

(* Every row is (engine, circuit, f_fast, fd, accepted?). Tones must be
   finite and > 0; fd >= f_fast is rejected only for the MPDE, whose
   sheared time scales need fd < f_fast. *)
let test_catalog_resolve () =
  let cases =
    [
      (Some Engine.Mpde, "rc", None, None, true);
      (None, "rc", None, None, true);
      (Some Engine.Mpde, "nope", None, None, false);
      (Some Engine.Mpde, "rc", None, Some 0.0, false);
      (Some Engine.Mpde, "rc", None, Some (-1.0), false);
      (Some Engine.Mpde, "rc", None, Some Float.nan, false);
      (Some Engine.Mpde, "rc", None, Some Float.infinity, false);
      (Some Engine.Mpde, "rc", Some 0.0, None, false);
      (Some Engine.Shooting, "rc", Some (-1.0), None, false);
      (Some Engine.Shooting, "rc", Some Float.nan, None, false);
      (None, "rc", Some Float.infinity, None, false);
      (Some Engine.Mpde, "rc", None, Some 2e6, false);
      (Some Engine.Mpde, "rc", Some 1e3, Some 1e3, false);
      (Some Engine.Shooting, "rc", None, Some 2e6, true);
      (Some Engine.Hb, "rc", Some 1e3, Some 1e4, true);
      (None, "rc", None, Some 2e6, true);
    ]
  in
  List.iter
    (fun (engine, name, f_fast, fd, accepted) ->
      let what =
        Printf.sprintf "%s %s f_fast=%s fd=%s"
          (Option.fold ~none:"-" ~some:Engine.kind_name engine)
          name
          (Option.fold ~none:"default" ~some:string_of_float f_fast)
          (Option.fold ~none:"default" ~some:string_of_float fd)
      in
      match Serve.Catalog.resolve ?engine ?f_fast ?fd name with
      | Ok (fixture, f, d) ->
          if not accepted then Alcotest.failf "%s should be rejected" what;
          Alcotest.(check string) (what ^ ": fixture") name fixture.Serve.Catalog.name;
          Alcotest.(check (float 0.0)) (what ^ ": f_fast")
            (Option.value f_fast ~default:fixture.Serve.Catalog.default_fast) f;
          Alcotest.(check (float 0.0)) (what ^ ": fd")
            (Option.value fd ~default:fixture.Serve.Catalog.default_fd) d
      | Error msg ->
          if accepted then Alcotest.failf "%s rejected: %s" what msg)
    cases;
  match Serve.Catalog.resolve ~engine:Engine.Mpde ~fd:Float.nan "rc" with
  | Error msg ->
      Alcotest.(check string) "names the bad value"
        "fd must be finite and > 0, got nan" msg
  | Ok _ -> Alcotest.fail "nan fd accepted"

(* ---------- Protocol: request parsing ---------- *)

let test_parse_job () =
  (match
     Serve.Protocol.parse_job
       "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"engine\":\"mpde\",\"fd\":2e3,\"options\":{\"n1\":16,\"n2\":12,\"tol\":1e-7},\"budget\":{\"wall_seconds\":5},\"warm\":false}"
   with
  | Error e -> Alcotest.fail (Serve.Protocol.error_message e)
  | Ok job ->
      Alcotest.(check string) "circuit" "rc"
        job.Serve.Protocol.fixture.Serve.Catalog.name;
      Alcotest.(check bool) "engine" true (job.Serve.Protocol.engine = Engine.Mpde);
      Alcotest.(check (float 0.0)) "default f_fast" 1e6 job.Serve.Protocol.f_fast;
      Alcotest.(check (float 0.0)) "fd" 2e3 job.Serve.Protocol.fd;
      Alcotest.(check int) "n1" 16 job.Serve.Protocol.options.Engine.Options.n1;
      Alcotest.(check (float 0.0)) "tol" 1e-7
        job.Serve.Protocol.options.Engine.Options.tol;
      Alcotest.(check bool) "budget wall" true
        (job.Serve.Protocol.wall_seconds = Some 5.0);
      Alcotest.(check bool) "warm off" false job.Serve.Protocol.warm);
  let rejected what body =
    match Serve.Protocol.parse_job body with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" what
  in
  rejected "missing version" "{\"circuit\":\"rc\"}";
  rejected "wrong version" "{\"v\":\"rfss.jobs/2\",\"circuit\":\"rc\"}";
  rejected "unknown circuit" "{\"v\":\"rfss.jobs/1\",\"circuit\":\"nope\"}";
  rejected "unknown option"
    "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"options\":{\"n3\":4}}";
  rejected "non-positive tol"
    "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"options\":{\"tol\":0}}";
  rejected "bad budget"
    "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"budget\":{\"wall_seconds\":-1}}";
  rejected "invalid JSON" "{\"v\":";
  (* Tones go through Catalog.resolve: 1e999 parses as inf, and the
     MPDE (the default engine) needs fd < f_fast. *)
  let invalid what body =
    match Serve.Protocol.parse_job body with
    | Error (Serve.Protocol.Invalid_request _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Serve.Protocol.error_message e)
    | Ok _ -> Alcotest.failf "%s should be rejected" what
  in
  invalid "infinite fd" "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"fd\":1e999}";
  invalid "infinite f_fast"
    "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"f_fast\":1e999}";
  invalid "mpde fd above f_fast"
    "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"engine\":\"mpde\",\"f_fast\":1e6,\"fd\":2e9}";
  match
    Serve.Protocol.parse_job
      "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"engine\":\"shooting\",\"fd\":2e6}"
  with
  | Ok job -> Alcotest.(check (float 0.0)) "shooting fd > f_fast" 2e6 job.Serve.Protocol.fd
  | Error e -> Alcotest.fail (Serve.Protocol.error_message e)

let test_parse_grid_sizes () =
  (* The MPDE grid needs two points per axis: smaller or fractional
     sizes are a typed protocol error at the boundary, never a worker
     failure or a silent truncation. *)
  let body options =
    Printf.sprintf "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"options\":%s}" options
  in
  let bad_option what options expected =
    match Serve.Protocol.parse_job (body options) with
    | Error (Serve.Protocol.Bad_option { name; _ } as e) ->
        Alcotest.(check string) (what ^ ": option") expected name;
        Alcotest.(check string)
          (what ^ ": message")
          (Printf.sprintf "option %S must be an integer >= 2" expected)
          (Serve.Protocol.error_message e)
    | Error e -> Alcotest.failf "%s: untyped error %s" what (Serve.Protocol.error_message e)
    | Ok _ -> Alcotest.failf "%s should be rejected" what
  in
  bad_option "n1 = 1" "{\"n1\":1}" "n1";
  bad_option "n2 = 0" "{\"n2\":0}" "n2";
  bad_option "n2 = -4" "{\"n2\":-4}" "n2";
  bad_option "n1 = 2.7" "{\"n1\":2.7}" "n1";
  (match Serve.Protocol.parse_job (body "{\"max_newton\":3.5}") with
  | Error (Serve.Protocol.Bad_option { name = "max_newton"; _ }) -> ()
  | _ -> Alcotest.fail "fractional max_newton should be a Bad_option");
  match Serve.Protocol.parse_job (body "{\"n1\":2,\"n2\":2.0}") with
  | Ok job ->
      Alcotest.(check (pair int int)) "smallest grid accepted" (2, 2)
        (job.Serve.Protocol.options.Engine.Options.n1,
         job.Serve.Protocol.options.Engine.Options.n2)
  | Error e -> Alcotest.fail (Serve.Protocol.error_message e)

let test_parse_points () =
  (* Periodic-FD collocation needs two points: "points":1 is a typed
     Bad_option (a 400), not a job that fails inside the solve. *)
  let body points =
    Printf.sprintf
      "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"engine\":\"periodic-fd\",\"options\":{\"points\":%d}}"
      points
  in
  List.iter
    (fun points ->
      match Serve.Protocol.parse_job (body points) with
      | Error (Serve.Protocol.Bad_option { name = "points"; _ } as e) ->
          Alcotest.(check string)
            (Printf.sprintf "points = %d message" points)
            "option \"points\" must be an integer >= 2"
            (Serve.Protocol.error_message e)
      | Error e -> Alcotest.failf "untyped error %s" (Serve.Protocol.error_message e)
      | Ok _ -> Alcotest.failf "points = %d should be rejected" points)
    [ 1; 0 ];
  match Serve.Protocol.parse_job (body 2) with
  | Ok job ->
      Alcotest.(check int) "two points accepted" 2
        job.Serve.Protocol.options.Engine.Options.points
  | Error e -> Alcotest.fail (Serve.Protocol.error_message e)

(* The server runs routes on its one select loop, so a body of deep
   nesting must fail fast: the parser stops at a fixed depth instead of
   recursing once per byte of a max_body_bytes body. *)
let test_parse_deep_nesting () =
  match Serve.Protocol.parse_job (String.make Observe.Http.max_body_bytes '[') with
  | Error (Serve.Protocol.Invalid_request msg) ->
      Alcotest.(check string) "names the depth"
        "invalid JSON: nesting deeper than 512 at offset 512" msg
  | Error e -> Alcotest.failf "untyped error %s" (Serve.Protocol.error_message e)
  | Ok _ -> Alcotest.fail "1 MiB of '[' should be rejected"

let test_parse_budget_and_ranges () =
  (* "budget" gets the same typed checks as "options": wrong types,
     unknown keys and fractional counts are a Bad_option naming the
     field, never ignored or truncated; integers past 2^53 (where
     int_of_float stops being exact) are rejected, not wrapped to 0. *)
  let body fields =
    Printf.sprintf "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",%s}" fields
  in
  let bad_option what fields expected =
    match Serve.Protocol.parse_job (body fields) with
    | Error (Serve.Protocol.Bad_option { name; _ }) ->
        Alcotest.(check string) (what ^ ": option") expected name
    | Error e -> Alcotest.failf "%s: untyped error %s" what (Serve.Protocol.error_message e)
    | Ok _ -> Alcotest.failf "%s should be rejected" what
  in
  bad_option "string max_newton" "\"budget\":{\"max_newton\":\"5\"}" "budget.max_newton";
  bad_option "string wall_seconds" "\"budget\":{\"wall_seconds\":\"1\"}"
    "budget.wall_seconds";
  bad_option "unknown budget key" "\"budget\":{\"wall_secs\":0.5}" "budget.wall_secs";
  bad_option "fractional max_newton" "\"budget\":{\"max_newton\":2.7}" "budget.max_newton";
  bad_option "zero wall_seconds" "\"budget\":{\"wall_seconds\":0}" "budget.wall_seconds";
  bad_option "n1 = 1e30" "\"options\":{\"n1\":1e30}" "n1";
  bad_option "max_newton = 1e19" "\"options\":{\"max_newton\":1e19}" "max_newton";
  bad_option "budget max_newton = 1e19" "\"budget\":{\"max_newton\":1e19}"
    "budget.max_newton";
  match
    Serve.Protocol.parse_job
      (body "\"budget\":{\"wall_seconds\":1.5,\"max_newton\":5},\"options\":{\"n1\":9007199254740992}")
  with
  | Ok job ->
      Alcotest.(check bool) "wall" true (job.Serve.Protocol.wall_seconds = Some 1.5);
      Alcotest.(check (option int)) "max_newton" (Some 5)
        job.Serve.Protocol.max_newton_budget;
      Alcotest.(check int) "n1 = 2^53 read exactly" (1 lsl 53)
        job.Serve.Protocol.options.Engine.Options.n1
  | Error e -> Alcotest.fail (Serve.Protocol.error_message e)

(* ---------- service helpers ---------- *)

(* Drain a handle's JSONL stream (with a deadline so a wedged worker
   fails the test instead of hanging it). *)
let drain h =
  let poll = Serve.Jobs.poll h in
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec go acc =
    match poll () with
    | `Data line -> go (String.trim line :: acc)
    | `Wait ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "job stream stalled";
        Unix.sleepf 0.005;
        go acc
    | `Eof -> List.rev acc
  in
  go []

let line_with_event lines event =
  match
    List.find_opt
      (fun l ->
        match J.parse l with
        | j -> Option.bind (J.member "event" j) J.str = Some event
        | exception J.Parse_error _ -> false)
      lines
  with
  | Some l -> l
  | None -> Alcotest.failf "no %S line in stream: %s" event (String.concat " | " lines)

let member_str line name =
  match Option.bind (J.member name (J.parse line)) J.str with
  | Some s -> s
  | None -> Alcotest.failf "no string member %S in %s" name line

let member_bool line name =
  match Option.bind (J.member name (J.parse line)) J.bool with
  | Some b -> b
  | None -> Alcotest.failf "no bool member %S in %s" name line

let member_int line name =
  match Option.bind (J.member name (J.parse line)) J.num with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "no numeric member %S in %s" name line

let rc_job ?(warm = false) ?(fd = 1e3) () =
  let fixture = fixture_exn "rc" in
  {
    Serve.Protocol.fixture;
    engine = Engine.Mpde;
    f_fast = fixture.Serve.Catalog.default_fast;
    fd;
    options = { default with Engine.Options.n1 = 16; n2 = 12 };
    wall_seconds = None;
    max_newton_budget = None;
    warm;
  }

(* ---------- served vs direct: byte-identical waveform CSV ---------- *)

let test_served_vs_direct () =
  let jobs = Serve.Jobs.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Jobs.stop jobs) @@ fun () ->
  let job = rc_job () in
  let lines = drain (Serve.Jobs.submit jobs job) in
  let result = line_with_event lines "result" in
  Alcotest.(check bool) "served converged" true (member_bool result "converged");
  let served_csv = member_str result "waveform_csv" in
  let fixture = job.Serve.Protocol.fixture in
  let direct =
    Engine.run
      (Serve.Catalog.problem_of fixture
         ~f_fast:job.Serve.Protocol.f_fast ~fd:job.Serve.Protocol.fd)
      (Engine.make ~options:job.Serve.Protocol.options Engine.Mpde)
  in
  let direct_csv =
    Serve.Protocol.waveform_csv
      ~output_node:fixture.Serve.Catalog.output_node
      direct.Engine.Result.waveform
  in
  Alcotest.(check string) "served CSV = direct CSV" direct_csv served_csv

(* ---------- identical resubmission: cache hit, byte-identical ---------- *)

let test_resubmission_cache_hit () =
  let jobs = Serve.Jobs.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Jobs.stop jobs) @@ fun () ->
  let job = rc_job () in
  let lines1 = drain (Serve.Jobs.submit jobs job) in
  let lines2 = drain (Serve.Jobs.submit jobs job) in
  let a1 = line_with_event lines1 "accepted" in
  let a2 = line_with_event lines2 "accepted" in
  Alcotest.(check string) "first is a miss" "miss" (member_str a1 "cache");
  Alcotest.(check string) "second is a hit" "hit" (member_str a2 "cache");
  Alcotest.(check string) "same key" (member_str a1 "key") (member_str a2 "key");
  Alcotest.(check bool) "distinct job ids" false
    (member_int a1 "id" = member_int a2 "id");
  (* The hit replays the stored result line byte for byte. *)
  Alcotest.(check string) "byte-identical result line"
    (line_with_event lines1 "result")
    (line_with_event lines2 "result");
  let s = Serve.Cache.stats (Serve.Jobs.cache jobs) in
  Alcotest.(check int) "one miss" 1 s.Serve.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Serve.Cache.hits;
  (* A perturbed option is a different key: miss, not hit. *)
  let perturbed =
    {
      job with
      Serve.Protocol.options =
        { job.Serve.Protocol.options with Engine.Options.tol = 1e-7 };
    }
  in
  let lines3 = drain (Serve.Jobs.submit jobs perturbed) in
  Alcotest.(check string) "perturbed option misses" "miss"
    (member_str (line_with_event lines3 "accepted") "cache")

(* ---------- warm start: fewer Newton iterations than cold ---------- *)

let test_warm_start_fewer_newton () =
  let jobs = Serve.Jobs.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Jobs.stop jobs) @@ fun () ->
  let fixture = fixture_exn "detector" in
  let options = { default with Engine.Options.n1 = 16; n2 = 12 } in
  let job fd =
    {
      Serve.Protocol.fixture;
      engine = Engine.Mpde;
      f_fast = fixture.Serve.Catalog.default_fast;
      fd;
      options;
      wall_seconds = None;
      max_newton_budget = None;
      warm = true;
    }
  in
  let fd0 = fixture.Serve.Catalog.default_fd in
  let fd1 = fd0 *. 1.02 in
  (* First solve is cold (empty warm store) and seeds the store. *)
  let r0 = line_with_event (drain (Serve.Jobs.submit jobs (job fd0))) "result" in
  Alcotest.(check bool) "seed solve converged" true (member_bool r0 "converged");
  Alcotest.(check bool) "seed solve was cold" false (member_bool r0 "warm_started");
  (* Cold reference for the nearby point: a direct run, no seed. *)
  let cold =
    Engine.run
      (Serve.Catalog.problem_of fixture
         ~f_fast:fixture.Serve.Catalog.default_fast ~fd:fd1)
      (Engine.make ~options Engine.Mpde)
  in
  Alcotest.(check bool) "cold reference converged" true
    cold.Engine.Result.converged;
  (* The served nearby point starts from the stored surface. *)
  let r1 = line_with_event (drain (Serve.Jobs.submit jobs (job fd1))) "result" in
  Alcotest.(check bool) "warm solve converged" true (member_bool r1 "converged");
  Alcotest.(check bool) "warm-started" true (member_bool r1 "warm_started");
  Alcotest.(check int) "one warm start counted" 1 (Serve.Jobs.warm_starts jobs);
  let warm_newton = member_int r1 "newton" in
  let cold_newton = cold.Engine.Result.newton_iterations in
  if warm_newton >= cold_newton then
    Alcotest.failf "warm start did not help: warm=%d cold=%d" warm_newton
      cold_newton

(* A seed that already meets the request's tolerance takes no Newton
   step and would hand back its own waveform: the served path re-solves
   it cold, as a sweep does, and does not report a warm start. *)
(* A stored surface that already meets the job's (looser) tolerance is
   handed out and taken with one Newton step, which lands as far inside
   the tolerance as the cold solve's last one. The served CSV prints
   each value v to 7 significant digits, off by at most 5e-7·|v|. *)
let test_warm_seed_within_tol_one_step () =
  let jobs = Serve.Jobs.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Jobs.stop jobs) @@ fun () ->
  let tight = rc_job ~warm:true () in
  let loose =
    {
      tight with
      Serve.Protocol.options =
        { tight.Serve.Protocol.options with Engine.Options.tol = 1e-6 };
    }
  in
  let r0 = line_with_event (drain (Serve.Jobs.submit jobs tight)) "result" in
  Alcotest.(check bool) "seed solve converged" true (member_bool r0 "converged");
  let lines = drain (Serve.Jobs.submit jobs loose) in
  Alcotest.(check string) "looser tol is a different key" "miss"
    (member_str (line_with_event lines "accepted") "cache");
  Alcotest.(check int) "the store handed back the surface" 1
    (Engine.Warm.served (Serve.Jobs.warm jobs));
  let served = line_with_event lines "result" in
  Alcotest.(check bool) "warm-started" true (member_bool served "warm_started");
  Alcotest.(check int) "warm start counted" 1 (Serve.Jobs.warm_starts jobs);
  Alcotest.(check int) "one Newton step" 1 (member_int served "newton");
  let fixture = loose.Serve.Protocol.fixture in
  let cold =
    Engine.run
      (Serve.Catalog.problem_of fixture ~f_fast:loose.Serve.Protocol.f_fast
         ~fd:loose.Serve.Protocol.fd)
      (Engine.make ~options:loose.Serve.Protocol.options Engine.Mpde)
  in
  let values =
    String.split_on_char '\n' (member_str served "waveform_csv")
    |> List.tl
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> float_of_string (List.nth (String.split_on_char ',' l) 1))
  in
  let cold_values = cold.Engine.Result.waveform.Engine.Result.values in
  Alcotest.(check int) "samples" (Array.length cold_values) (List.length values);
  let tol = loose.Serve.Protocol.options.Engine.Options.tol in
  List.iteri
    (fun k v ->
      let d = Float.abs (v -. cold_values.(k)) in
      if not (d <= tol +. (5e-7 *. Float.abs v *. (1.0 +. 1e-6))) then
        Alcotest.failf "sample %d: served %.6e, cold %.9e" k v cold_values.(k))
    values

(* ---------- served verdicts reach the introspection plane ---------- *)

(* A served job is judged like a sweep job: one converged and one
   unconverged solve must leave [failed = 1] and a known worst health
   in the published stats (which /healthz and /metrics expose). *)
let test_served_verdicts_published () =
  Observe.Publish.reset ();
  Observe.Publish.arm ();
  Fun.protect ~finally:(fun () ->
      Observe.Publish.disarm ();
      Observe.Publish.reset ())
  @@ fun () ->
  let jobs = Serve.Jobs.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Jobs.stop jobs) @@ fun () ->
  let ok = line_with_event (drain (Serve.Jobs.submit jobs (rc_job ()))) "result" in
  Alcotest.(check bool) "rc converged" true (member_bool ok "converged");
  let fixture = fixture_exn "rectifier" in
  let starved =
    {
      Serve.Protocol.fixture;
      engine = Engine.Mpde;
      f_fast = fixture.Serve.Catalog.default_fast;
      fd = fixture.Serve.Catalog.default_fd;
      options = { default with Engine.Options.n1 = 16; n2 = 12; max_newton = 1 };
      wall_seconds = None;
      max_newton_budget = None;
      warm = false;
    }
  in
  let bad = line_with_event (drain (Serve.Jobs.submit jobs starved)) "result" in
  Alcotest.(check bool) "rectifier unconverged" false (member_bool bad "converged");
  (* The worker publishes after it closes the stream: wait for it. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec settled () =
    let s = Observe.Publish.read_stats () in
    if s.Observe.Publish.counts.Observe.Publish.finished >= 2
       || Unix.gettimeofday () > deadline
    then s
    else begin
      Unix.sleepf 0.005;
      settled ()
    end
  in
  let s = settled () in
  let counts = s.Observe.Publish.counts in
  Alcotest.(check int) "both finished" 2 counts.Observe.Publish.finished;
  Alcotest.(check int) "one failed" 1 counts.Observe.Publish.failed;
  Alcotest.(check bool) "worst health is known" false
    (List.mem s.Observe.Publish.worst [ "unknown"; "none" ])

(* ---------- routes: protocol over the HTTP layer, no socket ---------- *)

let test_routes () =
  let jobs = Serve.Jobs.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Serve.Jobs.stop jobs) @@ fun () ->
  let routes = Serve.Service.routes jobs in
  let req meth =
    match
      Observe.Http.parse_request
        (Printf.sprintf "%s /jobs HTTP/1.0\r\n\r\n" meth)
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  (* Invalid body: immediate 400 carrying a protocol error line. *)
  (match routes (req "POST") "not json" with
  | Some (Observe.Server.Response raw) -> (
      match Observe.Http.parse_response raw with
      | Ok (status, _, body) ->
          Alcotest.(check int) "bad job is 400" 400 status;
          Alcotest.(check string) "error event" "error"
            (member_str (String.trim body) "event")
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "POST /jobs with a bad body should answer directly");
  (* A one-point grid is refused at the boundary, before any worker. *)
  (match
     routes (req "POST")
       "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"options\":{\"n1\":1}}"
   with
  | Some (Observe.Server.Response raw) -> (
      match Observe.Http.parse_response raw with
      | Ok (status, _, body) ->
          Alcotest.(check int) "n1 = 1 is 400" 400 status;
          Alcotest.(check string) "grid error message"
            "option \"n1\" must be an integer >= 2"
            (member_str (String.trim body) "message")
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "POST /jobs with n1 = 1 should answer directly");
  (* Valid body: a close-delimited JSONL stream. *)
  (match
     routes (req "POST")
       "{\"v\":\"rfss.jobs/1\",\"circuit\":\"rc\",\"options\":{\"n1\":16,\"n2\":12},\"warm\":false}"
   with
  | Some (Observe.Server.Stream { header; poll }) ->
      Alcotest.(check bool) "stream header is HTTP" true
        (String.length header > 0 && String.sub header 0 4 = "HTTP");
      let deadline = Unix.gettimeofday () +. 120.0 in
      let buf = Buffer.create 256 in
      let rec go () =
        match poll () with
        | `Data s ->
            Buffer.add_string buf s;
            go ()
        | `Wait ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "route stream stalled";
            Unix.sleepf 0.005;
            go ()
        | `Eof -> ()
      in
      go ();
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> String.trim l <> "")
      in
      ignore (line_with_event lines "accepted");
      ignore (line_with_event lines "result");
      ignore (line_with_event lines "done")
  | _ -> Alcotest.fail "POST /jobs should stream");
  (* GET /jobs is the status document. *)
  (match routes (req "GET") "" with
  | Some (Observe.Server.Response raw) -> (
      match Observe.Http.parse_response raw with
      | Ok (status, _, body) ->
          Alcotest.(check int) "status is 200" 200 status;
          Alcotest.(check string) "status version" "rfss.jobs/1"
            (member_str (String.trim body) "v")
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "GET /jobs should answer");
  (* Unsupported method on the endpoint: 405 with Allow. *)
  match routes (req "DELETE") "" with
  | Some (Observe.Server.Response raw) -> (
      match Observe.Http.parse_response raw with
      | Ok (status, headers, _) ->
          Alcotest.(check int) "405" 405 status;
          Alcotest.(check bool) "Allow lists GET and POST" true
            (List.assoc_opt "allow" headers = Some "GET, POST")
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "DELETE /jobs should be 405"

(* ---------- run ---------- *)

let () =
  Alcotest.run "serve"
    [
      ( "key",
        [
          Alcotest.test_case "pinned literal stability" `Quick test_key_stability;
          Alcotest.test_case "default job key" `Quick test_default_job_key;
          Alcotest.test_case "sensitivity and exclusions" `Quick
            test_key_sensitivity;
        ] );
      ( "cache",
        [ Alcotest.test_case "LRU hit/miss/eviction" `Quick test_cache_lru ] );
      ( "catalog",
        [ Alcotest.test_case "resolve validates tones" `Quick test_catalog_resolve ] );
      ( "protocol",
        [
          Alcotest.test_case "request parsing" `Quick test_parse_job;
          Alcotest.test_case "grid sizes below 2" `Quick test_parse_grid_sizes;
          Alcotest.test_case "collocation points below 2" `Quick test_parse_points;
          Alcotest.test_case "budget and integer ranges" `Quick
            test_parse_budget_and_ranges;
          Alcotest.test_case "deep nesting rejected" `Quick test_parse_deep_nesting;
        ] );
      ( "service",
        [
          Alcotest.test_case "served CSV = direct CSV" `Quick
            test_served_vs_direct;
          Alcotest.test_case "resubmission is a byte-identical hit" `Quick
            test_resubmission_cache_hit;
          Alcotest.test_case "warm start beats cold Newton count" `Quick
            test_warm_start_fewer_newton;
          Alcotest.test_case "seed within tol takes one step" `Quick
            test_warm_seed_within_tol_one_step;
          Alcotest.test_case "served verdicts published" `Quick
            test_served_verdicts_published;
          Alcotest.test_case "routes speak the protocol" `Quick test_routes;
        ] );
    ]
