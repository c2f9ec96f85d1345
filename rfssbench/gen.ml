(* Seeded input generators. Every input a workload feeds the program is
   a pure function of (seed, workload), so the same seed replays the
   same run. Where a draw moves a run's total cost it is stratified or
   dealt in rounds, so two seeds differ in values but not in how much
   work they ask for, and run-to-run spread measures the program rather
   than the dice. *)

let rng ~seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One draw from each of [n] equal log-width strata of [lo, hi], in
   increasing order, jittered log-uniformly over the middle fifth of
   its stratum: the seed moves every value, and no seed can pile the
   largest ones at a stratum's top. *)
let stratified_log st ~n lo hi =
  let span = log (hi /. lo) in
  Array.init n (fun k ->
      let u = 0.4 +. Random.State.float st 0.2 in
      lo *. exp ((float_of_int k +. u) /. float_of_int n *. span))

(* ---------- paper-mixer ---------- *)

let mixer_bits = 6

(* Every 6-bit pattern except all-zeros and all-ones, in a seeded order;
   solve k uses pattern k mod 62, so any run covers the patterns
   evenly. *)
let mixer_patterns ~seed =
  let all =
    List.init (1 lsl mixer_bits) (fun v ->
        Array.init mixer_bits (fun b -> v land (1 lsl (mixer_bits - 1 - b)) <> 0))
    |> List.filter (fun p -> Array.exists Fun.id p && not (Array.for_all Fun.id p))
  in
  shuffle (rng ~seed "paper-mixer") (Array.of_list all)

(* ---------- disparity-sweep ---------- *)

type circuit = Unbalanced_mixer | Gilbert_mixer

type sweep_job = {
  label : string;
  circuit : circuit;
  kind : Engine.kind;
  f_fast : float;
  fd : float;
  options : Engine.Options.t;
}

let sweep_f_lo = 1e6

let gilbert_f_lo = 100e6

(* [gilberts] Gilbert-cell MPDE jobs (32x16) with fd stratified over
   [5, 20] kHz, then [points] unbalanced-mixer disparities stratified
   over [20, max_disparity], each solved by shooting at 10 steps per LO
   cycle over the difference period and by MPDE (32x16) — the paper's
   §3 comparison. Roughly heaviest first — Gilbert jobs and high
   disparities lead — so the pool's chunked dynamic schedule ends on
   small jobs and a pass's wall time does not hinge on which domain
   drew the last heavy one. *)
let sweep_jobs ?(max_disparity = 1000.0) ~seed ~points ~gilberts () =
  let st = rng ~seed "disparity-sweep" in
  let grid = { Engine.Options.default with n1 = 32; n2 = 16 } in
  let unbalanced =
    stratified_log st ~n:points 20.0 max_disparity
    |> Array.to_list |> List.rev
    |> List.concat_map (fun d ->
           let fd = sweep_f_lo /. d in
           let job kind options =
             {
               label = Printf.sprintf "unbalanced d=%.2f %s" d (Engine.kind_name kind);
               circuit = Unbalanced_mixer;
               kind;
               f_fast = sweep_f_lo;
               fd;
               options;
             }
           in
           [
             job Engine.Shooting
               {
                 Engine.Options.default with
                 steps_per_period = int_of_float (Float.round (10.0 *. d));
               };
             job Engine.Mpde grid;
           ])
  in
  let gilbert =
    stratified_log st ~n:gilberts 5e3 20e3
    |> Array.to_list
    |> List.map (fun fd ->
           {
             label = Printf.sprintf "gilbert fd=%.1fHz mpde" fd;
             circuit = Gilbert_mixer;
             kind = Engine.Mpde;
             f_fast = gilbert_f_lo;
             fd;
             options = grid;
           })
  in
  Array.of_list (gilbert @ unbalanced)

(* ---------- served-mix ---------- *)

type point = { fixture : string; f_fast : float; fd : float; n1 : int; n2 : int }

type kind =
  | Repeat  (** an earlier request's key again: a cache hit *)
  | Near  (** an earlier point with fd x (1 + U[0.2 %, 3.2 %]): a new key, warm-started *)
  | Fresh  (** a point of a fresh class: a new key, solved cold *)

(* Keys are numbered in order of first use: the pool's points are keys
   0 .. pool size - 1, and each Near or Fresh request adds the next. *)
type request = { kind : kind; key : int; point : point }

(* Fresh-point classes: 60 % unbalanced mixer 24x16, 30 % detector
   32x24, 10 % balanced mixer 40x30. *)
let fresh_classes =
  [|
    ("unbalanced-mixer", 1e6, (5e3, 2e4), 24, 16);
    ("unbalanced-mixer", 1e6, (5e3, 2e4), 24, 16);
    ("unbalanced-mixer", 1e6, (5e3, 2e4), 24, 16);
    ("unbalanced-mixer", 1e6, (5e3, 2e4), 24, 16);
    ("unbalanced-mixer", 1e6, (5e3, 2e4), 24, 16);
    ("unbalanced-mixer", 1e6, (5e3, 2e4), 24, 16);
    ("detector", 1e6, (1e4, 4e4), 32, 24);
    ("detector", 1e6, (1e4, 4e4), 32, 24);
    ("detector", 1e6, (1e4, 4e4), 32, 24);
    ("balanced-mixer", 450e6, (10e3, 20e3), 40, 30);
  |]

let draw_point st (fixture, f_fast, (lo, hi), n1, n2) =
  let fd = lo *. exp (Random.State.float st (log (hi /. lo))) in
  { fixture; f_fast; fd; n1; n2 }

(* Deal the elements of [items] in reshuffled rounds: every round of
   [Array.length items] draws uses each element once, so any stretch of
   draws carries nearly the same mix whatever the seed. *)
let dealer st items =
  let round = ref [||] and next = ref 0 in
  fun () ->
    if !next >= Array.length !round then begin
      round := shuffle st (Array.copy items);
      next := 0
    end;
    incr next;
    !round.(!next - 1)

(* A repeat draws its earlier key among those last used [recent_min] to
   [recent_max] requests before it. With at most one request in flight
   per client, fewer than [recent_max] + 2 x clients other keys are used
   in between, so a repeated key is still in a result cache that large,
   while the run as a whole adds a new key with every other request and
   the cache evicts. [recent_min] gives the request that introduced a
   key time to finish before the key comes back. *)
let recent_min = 4

let recent_max = 32

(* The pool the cache holds before measuring starts — [pool_size] points
   of the fresh classes, dealt in rounds — and [count] requests after
   it, in blocks of 8 shuffled within the block: 4 repeats (50 %), 2
   near (25 %) and 2 fresh (25 %) requests. *)
let served_traffic ~seed ~pool_size ~count =
  assert (pool_size > recent_min);
  let st = rng ~seed "served-mix" in
  let fresh = dealer st fresh_classes in
  let pool = Array.init pool_size (fun _ -> draw_point st (fresh ())) in
  let points = Array.make (pool_size + count) pool.(0) in
  Array.blit pool 0 points 0 pool_size;
  (* last_use.(k): position of the request that last used key k; the
     pool's keys were used, in order, just before position 0. *)
  let last_use = Array.init (pool_size + count) (fun k -> k - pool_size) in
  let used_at = Array.make count 0 in
  let next_key = ref pool_size in
  let recent i =
    let lo = i - recent_max and hi = i - recent_min in
    let keys = ref [] in
    for k = 0 to pool_size - 1 do
      if last_use.(k) < 0 && last_use.(k) >= lo && last_use.(k) <= hi then keys := k :: !keys
    done;
    for p = max 0 lo to hi do
      let k = used_at.(p) in
      if last_use.(k) = p then keys := k :: !keys
    done;
    let keys = Array.of_list !keys in
    keys.(Random.State.int st (Array.length keys))
  in
  (* A near point moves the newest point of a fixture dealt from its
     own round of the classes, so every seed asks for the same mix of
     warm solves. A fresh point of the fixture starts the chain of
     moves again, so fd stays near its class's range. *)
  let near_class = dealer st fresh_classes in
  let newest = Hashtbl.create 4 in
  Array.iteri (fun k p -> Hashtbl.replace newest p.fixture k) pool;
  let block () =
    shuffle st [| Repeat; Repeat; Repeat; Repeat; Near; Near; Fresh; Fresh |]
  in
  let kinds = Array.concat (List.init ((count + 7) / 8) (fun _ -> block ())) in
  let requests =
    Array.init count (fun i ->
        let request kind key =
          used_at.(i) <- key;
          last_use.(key) <- i;
          { kind; key; point = points.(key) }
        in
        let fresh_key point =
          let key = !next_key in
          incr next_key;
          points.(key) <- point;
          Hashtbl.replace newest point.fixture key;
          key
        in
        match kinds.(i) with
        | Repeat -> request Repeat (recent i)
        | Near ->
            let fixture, _, _, _, _ = near_class () in
            let base =
              points.(match Hashtbl.find_opt newest fixture with Some k -> k | None -> recent i)
            in
            let factor = 1.0 +. 0.002 +. Random.State.float st 0.03 in
            request Near (fresh_key { base with fd = base.fd *. factor })
        | Fresh -> request Fresh (fresh_key (draw_point st (fresh ()))))
  in
  (pool, requests)
