(* Worker domains get a roomy minor heap before touching any work: a
   steady-state solve churns short-lived floats (Krylov scratch, device
   evaluation), and the OCaml 5 default of 256k words per domain makes
   spawned workers minor-collect so often that a parallel sweep can
   run *slower* than the serial one. 4M words (32 MB) amortizes that
   churn without meaningfully raising peak RSS for a handful of
   domains. Only spawned workers are tuned — the calling domain keeps
   whatever the embedding application configured. *)
let worker_minor_heap_words = 4 * 1024 * 1024

let spawn f =
  Domain.spawn (fun () ->
      let g = Gc.get () in
      if g.Gc.minor_heap_size < worker_minor_heap_words then
        Gc.set { g with Gc.minor_heap_size = worker_minor_heap_words };
      f ())

(* Which lane the current domain is running: the caller's first lane
   is 0. Stable across nested reads on the same domain; meaningful only
   while a lane is live. *)
let worker_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let worker_index () = !(Domain.DLS.get worker_key)

let as_lane k f =
  Domain.DLS.get worker_key := k;
  Observe.Publish.worker_started ~worker:k;
  Fun.protect ~finally:(fun () -> Observe.Publish.worker_stopped ~worker:k) f

let spawn_workers n f = List.init n (fun w -> spawn (fun () -> as_lane w f))

let map ?(assign = `Dynamic) ~domains f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let lanes = max 1 (min domains n) in
    let hosts = min lanes (Domain.recommended_domain_count ()) in
    let results = Array.make n None in
    (* Chunked claiming: grabbing a run of items per fetch instead of
       one keeps the shared index off the coherence hot path (one
       atomic RMW per chunk, not per item) while still load-balancing
       dynamically — 4 chunks per lane leaves enough slack for uneven
       job costs. *)
    let chunk = max 1 (n / (lanes * 4)) in
    let next = Atomic.make 0 in
    let rec dynamic () =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = min n (start + chunk) in
        (* Each slot is written by exactly one domain; Domain.join
           below publishes the writes to the caller. *)
        for i = start to stop - 1 do
          results.(i) <- Some (f items.(i))
        done;
        dynamic ()
      end
    in
    (* Static round-robin: lane [k] owns items i ≡ k (mod lanes). No
       shared claiming index at all, so the job → lane placement is a
       pure function of (index, lanes) — what deterministic per-lane
       tracing needs — at the price of no load balancing. *)
    let static k =
      let i = ref k in
      while !i < n do
        results.(!i) <- Some (f items.(!i));
        i := !i + lanes
      done
    in
    (* Domain [d] runs lanes d, d + hosts, … one after another. A lane
       after the domain's first starts with an empty solver workspace
       slot, as it would on a fresh domain of its own, so reuse
       counters (and the traces that report them) are the same on any
       host. *)
    let rec host d k =
      if k < lanes then begin
        if k > d then Backend.reset_workspace_slot ();
        as_lane k (fun () ->
            match assign with `Dynamic -> dynamic () | `Static -> static k);
        host d (k + hosts)
      end
    in
    let spawned =
      Array.init (hosts - 1) (fun j -> spawn (fun () -> host (j + 1) (j + 1)))
    in
    host 0 0;
    Array.iter Domain.join spawned;
    Array.map
      (function Some r -> r | None -> assert false (* queue drained *))
      results
  end
