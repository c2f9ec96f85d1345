(* Worker domains get a roomy minor heap before touching any work: a
   steady-state solve churns short-lived floats (Krylov scratch, device
   evaluation), and the OCaml 5 default of 256k words per domain makes
   spawned workers minor-collect so often that a parallel sweep can
   run *slower* than the serial one. 4M words (32 MB) amortizes that
   churn without meaningfully raising peak RSS for a handful of
   domains. Only spawned workers are tuned — the calling domain keeps
   whatever the embedding application configured. *)
let worker_minor_heap_words = 4 * 1024 * 1024

let tune_worker_gc () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < worker_minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = worker_minor_heap_words }

(* Which worker of the pool the current domain is: the caller is
   worker 0, spawned domains are 1..domains-1. Stable across nested
   reads on the same domain; meaningful only while a [map] is live. *)
let worker_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let worker_index () = !(Domain.DLS.get worker_key)

let map ?(assign = `Dynamic) ~domains f items =
  let n = Array.length items in
  if n = 0 then [||]
  else
    let domains = max 1 (min domains n) in
    if domains = 1 then begin
      Domain.DLS.get worker_key := 0;
      Observe.Publish.worker_started ~worker:0;
      Fun.protect
        ~finally:(fun () -> Observe.Publish.worker_stopped ~worker:0)
        (fun () -> Array.map f items)
    end
    else begin
      (* Chunked claiming: grabbing a run of items per fetch instead of
         one keeps the shared index off the coherence hot path (one
         atomic RMW per chunk, not per item) while still load-balancing
         dynamically — 4 chunks per domain leaves enough slack for
         uneven job costs. *)
      let chunk = max 1 (n / (domains * 4)) in
      let results = Array.make n None in
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
      (* Static round-robin: worker [k] owns items i ≡ k (mod domains).
         No shared claiming index at all, so the job → worker placement
         is a pure function of (index, domains) — what deterministic
         per-domain tracing needs — at the price of no load balancing. *)
      let static k =
        let i = ref k in
        while !i < n do
          results.(!i) <- Some (f items.(!i));
          i := !i + domains
        done
      in
      let work k =
        Domain.DLS.get worker_key := k;
        Observe.Publish.worker_started ~worker:k;
        Fun.protect
          ~finally:(fun () -> Observe.Publish.worker_stopped ~worker:k)
          (fun () ->
            match assign with `Dynamic -> dynamic () | `Static -> static k)
      in
      let spawned =
        Array.init (domains - 1) (fun j ->
            Domain.spawn (fun () ->
                tune_worker_gc ();
                work (j + 1)))
      in
      work 0;
      Array.iter Domain.join spawned;
      Array.map
        (function Some r -> r | None -> assert false (* queue drained *))
        results
    end
