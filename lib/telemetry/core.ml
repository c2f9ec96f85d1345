type event =
  | Span_begin of {
      id : int;
      parent : int;
      name : string;
      wall : float;
      cpu : float;
    }
  | Span_end of { id : int; name : string; wall : float; cpu : float }

(* Fixed log-spaced buckets shared by every histogram: 3 per decade
   from 1e-9 to 1e3 (covers nanosecond GC pauses through kilosecond
   solves and dimensionless residual ratios alike), plus an underflow
   bucket at the bottom and an overflow bucket at the top. A fixed
   layout keeps [observe] allocation-free after the first sample and
   makes histograms from different domains mergeable bucket-by-bucket. *)
let buckets_per_decade = 3

let bucket_decades = 12

let bucket_lo = 1e-9

let bucket_count = (buckets_per_decade * bucket_decades) + 2

let bucket_le i =
  if i >= bucket_count - 1 then infinity
  else bucket_lo *. (10.0 ** (float_of_int i /. float_of_int buckets_per_decade))

let bucket_index v =
  if not (v > bucket_lo) (* incl. nan, zero, negatives *) then 0
  else
    let k =
      int_of_float
        (Float.ceil (float_of_int buckets_per_decade *. Float.log10 (v /. bucket_lo)))
    in
    if k < 1 then 1 else if k > bucket_count - 2 then bucket_count - 1 else k

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

let quantile h q =
  if h.count <= 0 then Float.nan
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let b = ref 0 and cum = ref h.buckets.(0) in
    while !cum < rank && !b < bucket_count - 1 do
      incr b;
      cum := !cum + h.buckets.(!b)
    done;
    (* Geometric bucket midpoint, clamped to the observed range so the
       degenerate cases (single sample, under/overflow buckets) stay
       honest. *)
    let lo = if !b = 0 then h.min else bucket_le (!b - 1) in
    let hi = if !b = bucket_count - 1 then h.max else bucket_le !b in
    let mid = if lo > 0.0 && Float.is_finite hi then sqrt (lo *. hi) else hi in
    Float.min h.max (Float.max h.min mid)
  end

type snapshot = {
  events : event array;
  duration : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram) list;
}

type hist_acc = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type state = {
  mutable events_rev : event list;
  mutable len : int;
  mutable next_id : int;
  mutable stack : (int * string) list;  (** open spans, innermost first *)
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist_acc) Hashtbl.t;
  wall0 : float;
  cpu0 : float;
}

(* One recorder per domain. A process-global recorder would be unsound
   under Engine.Sweep's domain pool: the span stack assumes LIFO
   discipline within one thread of control, and the counter/gauge hash
   tables are not thread-safe — concurrent solves would interleave span
   begin/end events and race on table buckets. Domain-local storage
   gives every worker domain its own independent registry; enabling
   recording on one domain never observes or disturbs another's. *)
let state_key : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let state () = Domain.DLS.get state_key

(* Recorders live on any domain. While there are none, the untraced
   case, [recorder] answers without the domain-local lookup, which is
   most of what a disabled span, counter or histogram costs. A domain
   that exits with its recorder enabled leaves the count raised, which
   only sends every call down the lookup. *)
let live = Atomic.make 0

let recorder () = if Atomic.get live = 0 then None else !(state ())

let enabled () = recorder () <> None

let enable () =
  let r = state () in
  if !r = None then Atomic.incr live;
  r
  := Some
       {
         events_rev = [];
         len = 0;
         next_id = 0;
         stack = [];
         counters = Hashtbl.create 32;
         gauges = Hashtbl.create 16;
         hists = Hashtbl.create 16;
         wall0 = Clock.wall ();
         cpu0 = Clock.cpu ();
       }

let disable () =
  let r = state () in
  if !r <> None then Atomic.decr live;
  r := None

let enabled_at () =
  match recorder () with None -> None | Some st -> Some st.wall0

let push st e =
  st.events_rev <- e :: st.events_rev;
  st.len <- st.len + 1

let wall_of st = Clock.wall () -. st.wall0

let cpu_of st = Clock.cpu () -. st.cpu0

let begin_on st name =
  let id = st.next_id in
  st.next_id <- id + 1;
  let parent = match st.stack with (p, _) :: _ -> p | [] -> -1 in
  push st (Span_begin { id; parent; name; wall = wall_of st; cpu = cpu_of st });
  st.stack <- (id, name) :: st.stack;
  id

let end_on st id =
  (* Pop to (and including) [id]; closes any unbalanced inner spans so
     the log stays well-nested even if an inner span was left open. *)
  let rec pop = function
    | (id', name) :: rest ->
        push st (Span_end { id = id'; name; wall = wall_of st; cpu = cpu_of st });
        st.stack <- rest;
        if id' <> id then pop rest
    | [] -> ()
  in
  if List.exists (fun (id', _) -> id' = id) st.stack then pop st.stack

(* [span] for a two-argument call: no closure to allocate, so hot
   loops can time a callback per evaluation. Whether [f] returns or
   raises, the span is closed only if the recorder it was opened on is
   still the current one. *)
let span_app name f a b =
  match recorder () with
  | None -> f a b
  | Some st -> (
      let id = begin_on st name in
      match f a b with
      | y ->
          (match recorder () with Some st' when st' == st -> end_on st id | _ -> ());
          y
      | exception e ->
          (match recorder () with Some st' when st' == st -> end_on st id | _ -> ());
          raise e)

let span name f = span_app name (fun f () -> f ()) f ()

let count ?(by = 1) name =
  match recorder () with
  | None -> ()
  | Some st -> (
      match Hashtbl.find_opt st.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.add st.counters name (ref by))

let gauge name v =
  match recorder () with
  | None -> ()
  | Some st -> (
      match Hashtbl.find_opt st.gauges name with
      | Some r -> r := v
      | None -> Hashtbl.add st.gauges name (ref v))

(* Allocation gauges from GC counter deltas: cheap (no heap walk).
   Minor words come from [Gc.minor_words], which includes this domain's
   young allocation since its last minor collection; [quick_stat]'s
   minor count stops at that collection, so its deltas lump whole minor
   heaps into whichever call a collection falls in. Words, not bytes,
   so the numbers are word-size independent. *)
let with_alloc_gauges prefix f =
  (* GC deltas are environment measurements no fake clock can replay;
     recording them under an overridden clock would break the byte-
     reproducibility that deterministic traces promise. *)
  if not (enabled ()) || Clock.overridden () then f ()
  else begin
    let s0 = Gc.quick_stat () and m0 = Gc.minor_words () in
    let finish () =
      let s1 = Gc.quick_stat () in
      gauge (prefix ^ ".minor_words") (Gc.minor_words () -. m0);
      gauge (prefix ^ ".major_words") (s1.Gc.major_words -. s0.Gc.major_words);
      gauge (prefix ^ ".promoted_words")
        (s1.Gc.promoted_words -. s0.Gc.promoted_words)
    in
    match f () with
    | y ->
        finish ();
        y
    | exception e ->
        finish ();
        raise e
  end

let observe name v =
  match recorder () with
  | None -> ()
  | Some st -> (
      match Hashtbl.find_opt st.hists name with
      | Some h ->
          h.h_count <- h.h_count + 1;
          h.h_sum <- h.h_sum +. v;
          h.h_min <- Float.min h.h_min v;
          h.h_max <- Float.max h.h_max v;
          h.h_buckets.(bucket_index v) <- h.h_buckets.(bucket_index v) + 1
      | None ->
          let b = Array.make bucket_count 0 in
          b.(bucket_index v) <- 1;
          Hashtbl.add st.hists name
            { h_count = 1; h_sum = v; h_min = v; h_max = v; h_buckets = b })

let merge_histogram name (h : histogram) =
  if h.count > 0 then
    match recorder () with
    | None -> ()
    | Some st -> (
        match Hashtbl.find_opt st.hists name with
        | Some a ->
            a.h_count <- a.h_count + h.count;
            a.h_sum <- a.h_sum +. h.sum;
            a.h_min <- Float.min a.h_min h.min;
            a.h_max <- Float.max a.h_max h.max;
            Array.iteri
              (fun i n -> a.h_buckets.(i) <- a.h_buckets.(i) + n)
              h.buckets
        | None ->
            Hashtbl.add st.hists name
              {
                h_count = h.count;
                h_sum = h.sum;
                h_min = h.min;
                h_max = h.max;
                h_buckets = Array.copy h.buckets;
              })

let mark () = match recorder () with None -> 0 | Some st -> st.len

let sorted_bindings tbl value_of =
  Hashtbl.fold (fun k v acc -> (k, value_of v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot ?(since = 0) () =
  match recorder () with
  | None -> None
  | Some st ->
      let wall = wall_of st and cpu = cpu_of st in
      (* Synthesize ends for still-open spans, innermost first, so the
         captured log is always well-nested. *)
      let closing =
        List.map (fun (id, name) -> Span_end { id; name; wall; cpu }) st.stack
      in
      let tail =
        (* events_rev is newest-first; keep the newest [len - since]. *)
        let rec take n l acc =
          if n <= 0 then acc
          else
            match l with [] -> acc | e :: rest -> take (n - 1) rest (e :: acc)
        in
        take (st.len - since) st.events_rev []
      in
      let events = Array.of_list (tail @ closing) in
      (* Drop the closing events of spans opened before [since]: their
         Span_begin is missing from the window, so summaries would
         misattribute them. *)
      let open_ids = Hashtbl.create 8 in
      Array.iter
        (function
          | Span_begin { id; _ } -> Hashtbl.replace open_ids id () | _ -> ())
        events;
      let events =
        Array.of_seq
          (Seq.filter
             (function
               | Span_end { id; _ } -> Hashtbl.mem open_ids id
               | Span_begin _ -> true)
             (Array.to_seq events))
      in
      Some
        {
          events;
          duration = wall;
          counters = sorted_bindings st.counters (fun r -> !r);
          gauges = sorted_bindings st.gauges (fun r -> !r);
          histograms =
            sorted_bindings st.hists (fun h ->
                {
                  count = h.h_count;
                  sum = h.h_sum;
                  min = h.h_min;
                  max = h.h_max;
                  buckets = Array.copy h.h_buckets;
                });
        }
