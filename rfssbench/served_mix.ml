(* served-mix: the in-process solve service (Serve.Service, a worker
   domain for every core but one) on a Unix socket, driven through
   Observe.Client.post. The seeded traffic (Gen.served_traffic) is 50 %
   repeats of an earlier key (cache hits), 25 % near points at
   fd x (1 + U[0.2 %, 3.2 %]) of an earlier point (warm starts) and
   25 % fresh cold points (60 % unbalanced mixer 24x16, 30 % detector
   32x24, 10 % balanced mixer 40x30).

   First, services are started one after another, each timed to its
   first answer (the set-up) and then given rounds of cache hits one at
   a time on the otherwise idle service (the end-to-end latency). The
   last one stays up, its cache is filled with a pool, and the traffic
   follows: phase A, an open loop at a fixed rate, each request timed
   from when it was due, and phase B, a closed loop with one
   outstanding request per client thread (one per core). They feed the
   per-layer metrics. *)

module J = Diagnostics.Json_min

let name = "served-mix"

(* Phase B's closed loop completed 85-118 requests/s of this traffic
   with one worker on a 2-vCPU host (serve.closed_loop_rps); phase A's
   fixed rate is about 30 % of that, so it sees queueing without
   saturating. *)
let rate = 30.0

(* Two whole rounds of the ten fresh classes (Gen.fresh_classes), so
   every seed's cache starts with the same mix of fixtures. *)
let pool_size = 20

(* Observe.Client's inactivity timeout (its default). A response whose
   connection the server leaves open after the done line ends only when
   this expires; such a request is counted in
   observe.http.stalled_responses. *)
let client_timeout = 5.0

let body (p : Gen.point) ~warm =
  J.to_string
    (J.Obj
       [
         ("v", J.Str Serve.Protocol.version);
         ("circuit", J.Str p.Gen.fixture);
         ("engine", J.Str "mpde");
         ("f_fast", J.Num p.Gen.f_fast);
         ("fd", J.Num p.Gen.fd);
         ( "options",
           J.Obj [ ("n1", J.Num (float_of_int p.Gen.n1)); ("n2", J.Num (float_of_int p.Gen.n2)) ] );
         ("warm", J.Bool warm);
       ])

(* Fresh points opt out of the warm-start store, so they stay cold. *)
let warm (r : Gen.request) = r.Gen.kind <> Gen.Fresh

type reply = {
  req : Gen.request;
  client : int;
  due : float;  (** when the request should have been sent *)
  sent : float;
  finished : float;
  hit : bool;
  result_line : string;
  solve_s : float;  (** the result line's wall_seconds *)
  warm_started : bool;
  errors : string list;
}

(* Parse and check one response: HTTP 200 carrying exactly the lines
   accepted, result, done; a converged result; a repeat is a cache hit
   replaying its key's first result line byte for byte, and a new key
   is a miss. *)
let reply_of (req : Gen.request) ~first ~client ~due ~sent ~finished response =
  let r =
    { req; client; due; sent; finished; hit = false; result_line = ""; solve_s = 0.0;
      warm_started = false; errors = [] }
  in
  let fail msg = { r with errors = [ msg ] } in
  match response with
  | Error e -> fail ("request failed: " ^ e)
  | Ok (status, _, _) when status <> 200 -> fail (Printf.sprintf "HTTP %d" status)
  | Ok (_, _, payload) -> (
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' payload) in
      let str name j = Option.bind (J.member name j) J.str in
      match List.map (fun l -> (l, J.parse l)) lines with
      | exception J.Parse_error e -> fail ("malformed response line: " ^ e)
      | [ (_, accepted); (result_line, result); (_, done_) ]
        when str "event" accepted = Some "accepted"
             && str "event" result = Some "result"
             && str "event" done_ = Some "done" ->
          let hit = str "cache" accepted = Some "hit" in
          let errors =
            Harness.expect
              (Option.bind (J.member "converged" result) J.bool = Some true)
              "result not converged"
            @
            match first with
            | Some first ->
                Harness.expect hit "repeat missed the cache"
                @ Harness.expect (result_line = first) "hit does not replay the first result line"
            | None -> Harness.expect (not hit) "new point hit the cache"
          in
          {
            r with
            hit;
            result_line;
            solve_s =
              Option.value (Option.bind (J.member "wall_seconds" result) J.num) ~default:Float.nan;
            warm_started = Option.bind (J.member "warm_started" result) J.bool = Some true;
            errors;
          }
      | _ ->
          fail
            (Printf.sprintf "expected accepted, result, done; got: %s"
               (String.concat " | " lines)))

(* Each key's first result line, by key: set by the request that
   introduced the key (a failed one leaves ""), read by its repeats. *)
type firsts = string option Atomic.t array

(* A repeat waits until the request that introduced its key has
   answered: the service does not merge a request with an identical
   one still being solved. *)
let rec await (firsts : firsts) key =
  match Atomic.get firsts.(key) with
  | Some line -> line
  | None ->
      Thread.delay 0.0002;
      await firsts key

(* Send [reqs] from [clients] threads. With [rate], request i is due at
   i / rate after the start (open loop); otherwise each client sends
   its next request when the previous one completes (closed loop).
   Clients stop taking requests after [until]. *)
let drive ~clients ~addr ~(firsts : firsts) ?rate ?until (reqs : Gen.request array) =
  let n = Array.length reqs in
  let next = Atomic.make 0 in
  let out = Array.make n None in
  let t0 = Harness.now () in
  let client c =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      let open_ = match until with Some u -> Harness.now () < u | None -> true in
      if i < n && open_ then begin
        let req = reqs.(i) in
        let due =
          match rate with Some r -> t0 +. (float_of_int i /. r) | None -> Harness.now ()
        in
        let first = if req.Gen.kind = Gen.Repeat then Some (await firsts req.Gen.key) else None in
        let wait = due -. Harness.now () in
        if wait > 0.0 then Thread.delay wait;
        let sent = Harness.now () in
        let response =
          Observe.Client.post ~timeout:client_timeout addr "/jobs" (body req.Gen.point ~warm:(warm req))
        in
        let finished = Harness.now () in
        let r = reply_of req ~first ~client:c ~due ~sent ~finished response in
        if first = None then Atomic.set firsts.(req.Gen.key) (Some r.result_line);
        out.(i) <- Some r;
        if i mod 20 = 0 then Harness.sample_rss ();
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create client c));
  List.filter_map Fun.id (Array.to_list out)

(* The first request of every service: the same cold point whatever
   the seed, so set-up time does not depend on the draw — the paper's
   balanced mixer, the heaviest fresh class. Starting the service's
   domains maps their heaps, and its cost moves with the host's memory
   state, which the probe does not see: behind a 6 ms unbalanced-mixer
   answer, the set-up median of ten runs moved by a fifth from one set
   of runs to the next. *)
let first_request =
  {
    Gen.kind = Gen.Fresh;
    key = -1;
    point = { Gen.fixture = "balanced-mixer"; f_fast = 450e6; fd = 15e3; n1 = 40; n2 = 30 };
  }

let post ~addr (req : Gen.request) =
  Observe.Client.post ~timeout:client_timeout addr "/jobs" (body req.Gen.point ~warm:(warm req))

(* Start the service and have it answer its first request: a user's
   wait from start to first answer. Returns the service and the first
   result line. *)
let start (cfg : Harness.config) ck ~workers ~clients =
  Harness.mkdir_p cfg.Harness.out_dir;
  let sock = Filename.concat cfg.Harness.out_dir (Printf.sprintf "served-%d.sock" (Unix.getpid ())) in
  (* A Unix socket path must fit sun_path; fall back to loopback TCP. *)
  let spec = if String.length sock < 100 then sock else "127.0.0.1:0" in
  (* rfssd's default result cache (64 entries), unless the clients
     could push a repeated key out of it (Gen.recent_max). *)
  let cache_capacity = max 64 (Gen.recent_max + (2 * clients)) in
  let svc =
    match Observe.Addr.parse spec with
    | Error e -> failwith e
    | Ok addr -> (
        match Serve.Service.start ~workers ~cache_capacity addr with
        | Ok svc -> svc
        | Error e -> failwith e)
  in
  let sent = Harness.now () in
  let response = post ~addr:(Serve.Service.addr svc) first_request in
  let finished = Harness.now () in
  let r = reply_of first_request ~first:None ~client:0 ~due:sent ~sent ~finished response in
  Harness.record ck r.errors;
  (svc, r.result_line)

(* Fill the cache with the pool, one request at a time, so each pool
   point warm-starts from the same earlier ones in every run. *)
let fill ck ~addr ~firsts ~pool =
  (* Pool points are new keys that may warm-start, as near points are. *)
  let requests = Array.mapi (fun key point -> { Gen.kind = Gen.Near; key; point }) pool in
  List.iter (fun r -> Harness.record ck r.errors) (drive ~clients:1 ~addr ~firsts requests)

let latency r = r.finished -. r.due

let quantile_of f replies q = Stats.quantile (Array.of_list (List.map f replies)) q

(* Quiet hits on a service that has just answered its first request:
   rounds of [round_hits] repeats of that request, one at a time from
   this thread with the cores otherwise idle, each round followed by a
   probe. They time the hit path alone — connection, HTTP, protocol,
   cache lookup, replay. A round's hits run back to back: a probe
   between two hits would let the server domain's vCPU fall idle, and
   the next hit would time the host waking it. Responses are checked
   after the probe, off the clock. The first round warms the path and
   is not kept. Returns each kept round's wall time per hit and its
   probe (Harness.bracket). *)
let round_hits = 60

let quiet_hits ck ~addr ~first_line ~rounds =
  let repeat = { first_request with Gen.kind = Gen.Repeat } in
  let round () =
    let t0 = Harness.now () in
    let replies =
      List.init round_hits (fun _ ->
          let sent = Harness.now () in
          let response = post ~addr repeat in
          (sent, Harness.now (), response))
    in
    let wall = Harness.now () -. t0 in
    let probe = Harness.probe () in
    List.iter
      (fun (sent, finished, response) ->
        Harness.record ck
          (reply_of repeat ~first:(Some first_line) ~client:0 ~due:sent ~sent ~finished response)
            .errors)
      replies;
    (wall /. float_of_int round_hits, probe)
  in
  let rec go k before acc =
    if k = rounds then List.rev acc
    else
      let wall, after = round () in
      go (k + 1) after ((wall, Harness.bracket before after) :: acc)
  in
  if rounds = 0 then [] else go 0 (snd (round ())) []

(* Start services one after another, each timed from start to first
   answer between two probes, and give each [quiet_rounds] rounds
   of quiet hits; stop each but the last, once [seconds] have passed
   and at least [min_services] have run. A start varies with every
   domain spawn, so many are timed for a steady median. Returns the
   last service, the set-ups' (wall, probe) and the quiet rounds' (wall
   per hit, probe). *)
let services cfg ck ~workers ~clients ~seconds ~min_services ~quiet_rounds =
  let t_end = Harness.now () +. seconds in
  let rec go k setups hits =
    let before = Harness.probe () in
    let (svc, first_line), wall = Harness.time (fun () -> start cfg ck ~workers ~clients) in
    let setups = (wall, Harness.bracket before (Harness.probe ())) :: setups in
    let hits = quiet_hits ck ~addr:(Serve.Service.addr svc) ~first_line ~rounds:quiet_rounds @ hits in
    if k + 1 < min_services || Harness.now () < t_end then begin
      Serve.Service.stop svc;
      go (k + 1) setups hits
    end
    else (svc, setups, hits)
  in
  let svc, setups, hits = go 0 [] [] in
  let split l = (Array.of_list (List.map fst l), Array.of_list (List.map snd l)) in
  (svc, split setups, split hits)

(* Replay fresh (cold) requests directly through Engine.run on this
   domain, untraced then traced: the served result line must match the
   direct one in everything but wall time, and the traced twins give
   the solver-layer metrics of the served misses. *)
let replay ck replies ~max =
  let fresh =
    List.filteri (fun k _ -> k < max)
      (List.filter (fun r -> r.req.Gen.kind = Gen.Fresh && r.errors = []) replies)
  in
  let strip line =
    match J.parse line with
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "wall_seconds") fields)
    | j -> j
  in
  List.map
    (fun r ->
      let p = r.req.Gen.point in
      let fixture = Result.get_ok (Serve.Catalog.find p.Gen.fixture) in
      let job =
        {
          Serve.Protocol.fixture;
          engine = Engine.Mpde;
          f_fast = p.Gen.f_fast;
          fd = p.Gen.fd;
          options = { Engine.Options.default with n1 = p.Gen.n1; n2 = p.Gen.n2 };
          wall_seconds = None;
          max_newton_budget = None;
          warm = false;
        }
      in
      let solve () =
        Engine.run
          (Serve.Catalog.problem_of fixture ~f_fast:p.Gen.f_fast ~fd:p.Gen.fd)
          (Engine.make ~options:job.Serve.Protocol.options Engine.Mpde)
      in
      let _, untraced = Harness.time solve in
      let res, traced, part = Harness.traced ~thread_name:"replay" ~label:p.Gen.fixture solve in
      let line =
        Serve.Protocol.result_line ~key:(Serve.Protocol.key_of_job job) ~warm_started:false job res
      in
      Harness.record ck
        (Harness.expect
           (strip line = strip r.result_line)
           (Printf.sprintf "served %s result differs from a direct solve" p.Gen.fixture));
      (res, untraced, traced, part))
    fresh

(* One trace lane per client thread: a "serve.hit" or "serve.miss"
   span from send to last byte for every request it made. *)
let request_lanes replies =
  let base = List.fold_left (fun acc r -> Float.min acc r.sent) infinity replies in
  let lane c =
    let mine =
      List.filter (fun r -> r.client = c) replies
      |> List.sort (fun x y -> Float.compare x.sent y.sent)
    in
    let events =
      List.concat
        (List.mapi
           (fun id r ->
             let name = if r.hit then "serve.hit" else "serve.miss" in
             [
               Telemetry.Span_begin { id; parent = -1; name; wall = r.sent -. base; cpu = 0.0 };
               Telemetry.Span_end { id; name; wall = r.finished -. base; cpu = 0.0 };
             ])
           mine)
    in
    {
      Telemetry.Merge.pid = Unix.getpid ();
      tid = c + 1;
      thread_name = Printf.sprintf "client-%d" c;
      label = None;
      base;
      snapshot =
        {
          Telemetry.events = Array.of_list events;
          duration = List.fold_left (fun acc r -> Float.max acc (r.finished -. base)) 0.0 mine;
          counters = [];
          gauges = [];
          histograms = [];
        };
    }
  in
  let clients = List.sort_uniq compare (List.map (fun r -> r.client) replies) in
  List.map lane clients

(* Idle time before anything else. On a 2-vCPU VM, a run started
   straight after a run that kept both vCPUs busy (disparity-sweep) had
   quiet hits 27 % slower against the probe for its whole length, and a
   faster set-up; with three seconds idle first, as with three seconds
   between the two processes, it read like any other run. *)
let settle_s = 3.0

let run (cfg : Harness.config) =
  if not cfg.Harness.toy then Unix.sleepf settle_s;
  let ck = Harness.checks () in
  let monitor = if cfg.Harness.trace then Telemetry.Runtime.start () else None in
  let clients = Harness.domains () in
  (* One core is left to the server domain and the client threads, so
     a hit is not queued behind two solves for a core. *)
  let workers = max 1 (clients - 1) in
  (* An untraced run gives 40 % of the measuring time to services
     started one after another, with quiet hits, and the rest to phases
     A and B, 2:3; a traced run starts five services, without quiet
     hits, and keeps a fifth of its time for the direct replays. *)
  let quiet_share, share = if cfg.Harness.trace then (0.0, 0.8) else (0.4, 0.6) in
  let seconds_a = 0.4 *. share *. cfg.Harness.seconds in
  let seconds_b = 0.6 *. share *. cfg.Harness.seconds in
  (* At least one block of the traffic, so phase A holds cache hits. *)
  let count_a = max 8 (int_of_float (rate *. seconds_a)) in
  (* Phase B stops on time; no host completes 1000 requests/s of it. *)
  let count_b = max 1 (int_of_float (1000.0 *. seconds_b)) in
  let pool, traffic =
    Gen.served_traffic ~seed:cfg.Harness.seed
      ~pool_size:(if cfg.Harness.toy then Gen.recent_min + 1 else pool_size)
      ~count:(count_a + count_b)
  in
  let firsts = Array.init (Array.length pool + count_a + count_b) (fun _ -> Atomic.make None) in
  let svc, (setup_walls, setup_probes), quiet =
    services cfg ck ~workers ~clients ~seconds:(quiet_share *. cfg.Harness.seconds)
      ~min_services:(if cfg.Harness.toy then 2 else 5)
      ~quiet_rounds:(if cfg.Harness.trace then 0 else 8)
  in
  let setup = Stats.median (Harness.scaled_all setup_walls setup_probes) in
  Fun.protect ~finally:(fun () -> Serve.Service.stop svc) @@ fun () ->
  let addr = Serve.Service.addr svc in
  fill ck ~addr ~firsts ~pool;
  let cpu0 = Harness.cpu_now () in
  let a = drive ~clients ~addr ~firsts ~rate (Array.sub traffic 0 count_a) in
  let t0_b = Harness.now () in
  let b = drive ~clients ~addr ~firsts ~until:(t0_b +. seconds_b) (Array.sub traffic count_a count_b) in
  let t1_b = Harness.now () in
  let cpu = Harness.cpu_now () -. cpu0 in
  List.iter (fun r -> Harness.record ck r.errors) (a @ b);
  let ops = List.length a + List.length b in
  let hits = List.filter (fun r -> r.hit) and misses = List.filter (fun r -> not r.hit) in
  let rps = float_of_int (List.length b) /. (t1_b -. t0_b) in
  if not cfg.Harness.trace then
    let walls, probes = quiet in
    Harness.report ck (Harness.end_to_end ~latency:(Harness.scaled_latency walls probes) ~setup)
  else begin
    let replays = replay ck a ~max:(if cfg.Harness.toy then 1 else 8) in
    let parts =
      List.filter_map
        (fun (_, _, _, p) ->
          Option.map
            (fun (p : Telemetry.Merge.part) ->
              { p with Telemetry.Merge.tid = clients + 1; thread_name = "replay" })
            p)
        replays
    in
    List.iter
      (fun (p : Telemetry.Merge.part) -> Harness.record ck (Layers.identity_errors p.snapshot))
      parts;
    let traced = List.fold_left (fun acc (_, _, t, _) -> acc +. t) 0.0 replays in
    let untraced = List.fold_left (fun acc (_, u, _, _) -> acc +. u) 0.0 replays in
    Harness.write_trace cfg ~workload:name
      ~summary:
        [
          ("schema", J.Str "rfssbench.trace/1");
          ("workload", J.Str name);
          ("domains", J.Num (float_of_int clients));
        ]
      (request_lanes (a @ b) @ parts);
    let healthz =
      Array.init 20 (fun _ ->
          let r, w = Harness.time (fun () -> Observe.Client.get addr "/healthz") in
          Harness.record ck
            (match r with
            | Ok (200, _, _) -> []
            | Ok (st, _, _) -> [ Printf.sprintf "/healthz answered %d" st ]
            | Error e -> [ "/healthz failed: " ^ e ]);
          w)
    in
    let all = a @ b in
    let frac n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
    let cache = Serve.Cache.stats (Serve.Jobs.cache (Serve.Service.jobs svc)) in
    let kernels =
      match replays with
      | ({ Engine.Result.mpde_solution = Some sol; _ }, _, _, _) :: _ -> Probe.kernels sol
      | _ -> []
    in
    Harness.report ck
      (Layers.solver_metrics
         (List.map (fun (p : Telemetry.Merge.part) -> Telemetry.Summary.of_snapshot p.snapshot) parts)
         ~op_wall:traced
      @ kernels
      @ Harness.gc_metrics monitor ~ops
      @ Harness.resource_metrics ~cpu_per_op:(cpu /. float_of_int ops)
      @ [
          ("serve.hit_frac", frac (List.length (hits all)) (List.length all));
          ( "serve.warm_frac",
            frac (List.length (List.filter (fun r -> r.warm_started) (misses all))) (List.length (misses all)) );
          ("serve.evictions", float_of_int cache.Serve.Cache.evictions);
          ("serve.closed_loop_rps", rps);
          ("serve.req_hit_s_p50", quantile_of latency (hits a) 0.5);
          ("serve.req_miss_s_p50", quantile_of latency (misses a) 0.5);
          ("serve.req_p99_s", quantile_of latency a 0.99);
          ("serve.miss_solve_s_p50", quantile_of (fun r -> r.solve_s) (misses all) 0.5);
          ("serve.miss_wait_s_p50", quantile_of (fun r -> latency r -. r.solve_s) (misses a) 0.5);
          ( "serve.result_bytes_p50",
            quantile_of (fun r -> float_of_int (String.length r.result_line)) all 0.5 );
          ("observe.http.healthz_rtt_s_p50", Stats.median healthz);
          ( "observe.http.stalled_responses",
            float_of_int
              (List.length (List.filter (fun r -> r.finished -. r.sent >= client_timeout) all)) );
          ("bench.gen_late_p99_s", quantile_of (fun r -> r.sent -. r.due) a 0.99);
          ("bench.trace_overhead_frac", if untraced > 0.0 then (traced /. untraced) -. 1.0 else 0.0);
          ("bench.op_s_p50", quantile_of latency a 0.5);
          ("bench.op_s_p90", quantile_of latency a 0.9);
          ("bench.ops_traced", float_of_int (List.length parts));
        ])
  end
