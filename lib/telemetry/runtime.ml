(* Self-monitoring consumer over OCaml 5 Runtime_events: the process
   subscribes to its own ring buffers and folds GC phase spans into
   bucketed pause histograms, per ring (= per domain). Arm before the
   work, [poll] after (and optionally during); [stats] aggregates.

   Phase accounting deliberately tracks only the two top-level phases —
   EV_MINOR (a whole minor collection, a real mutator pause) and
   EV_MAJOR (one major slice) — because their sub-phases
   (EV_MINOR_LOCAL_ROOTS, EV_MAJOR_SWEEP, …) nest inside them and
   would double-count the same wall time. *)

type ring = {
  ring_id : int;
  mutable minor_collections : int;
  mutable major_slices : int;
  mutable minor_ns : int64;  (** open EV_MINOR begin timestamp, or -1 *)
  mutable major_ns : int64;
  minor_pause : acc;
  major_pause : acc;
}

and acc = {
  mutable a_count : int;
  mutable a_sum : float;
  mutable a_min : float;
  mutable a_max : float;
  a_buckets : int array;
}

let acc_create () =
  {
    a_count = 0;
    a_sum = 0.0;
    a_min = infinity;
    a_max = neg_infinity;
    a_buckets = Array.make Core.bucket_count 0;
  }

let acc_add a v =
  a.a_count <- a.a_count + 1;
  a.a_sum <- a.a_sum +. v;
  a.a_min <- Float.min a.a_min v;
  a.a_max <- Float.max a.a_max v;
  a.a_buckets.(Core.bucket_index v) <- a.a_buckets.(Core.bucket_index v) + 1

let acc_freeze a : Core.histogram =
  {
    Core.count = a.a_count;
    sum = a.a_sum;
    min = (if a.a_count > 0 then a.a_min else 0.0);
    max = (if a.a_count > 0 then a.a_max else 0.0);
    buckets = Array.copy a.a_buckets;
  }

let acc_merge ~into:a (b : acc) =
  if b.a_count > 0 then begin
    a.a_count <- a.a_count + b.a_count;
    a.a_sum <- a.a_sum +. b.a_sum;
    a.a_min <- Float.min a.a_min b.a_min;
    a.a_max <- Float.max a.a_max b.a_max;
    Array.iteri (fun i n -> a.a_buckets.(i) <- a.a_buckets.(i) + n) b.a_buckets
  end

type t = {
  cursor : Runtime_events.cursor;
  mutable callbacks : Runtime_events.Callbacks.t;
  rings : (int, ring) Hashtbl.t;
  mutable domain_spawns : int;
  mutable forced_minors : int;
  mutable lost_events : int;
  mutable freed : bool;
}

type stats = {
  minor_pause : Core.histogram;  (** seconds per minor collection *)
  major_pause : Core.histogram;  (** seconds per major slice *)
  minor_collections : int;
  major_slices : int;
  domains_seen : int;
  domain_spawns : int;
  forced_minors : int;
  lost_events : int;
}

let ring_of t id =
  match Hashtbl.find_opt t.rings id with
  | Some r -> r
  | None ->
      let r =
        {
          ring_id = id;
          minor_collections = 0;
          major_slices = 0;
          minor_ns = -1L;
          major_ns = -1L;
          minor_pause = acc_create ();
          major_pause = acc_create ();
        }
      in
      Hashtbl.add t.rings id r;
      r

let seconds_between ns0 ns1 =
  Int64.to_float (Int64.sub ns1 ns0) *. 1e-9

let start () =
  match
    let () = Runtime_events.start () in
    Runtime_events.create_cursor None
  with
  | exception _ -> None
  | cursor ->
      let rings = Hashtbl.create 8 in
      let t =
        {
          cursor;
          callbacks = Runtime_events.Callbacks.create ();
          rings;
          domain_spawns = 0;
          forced_minors = 0;
          lost_events = 0;
          freed = false;
        }
      in
      let runtime_begin id ts phase =
        let ns = Runtime_events.Timestamp.to_int64 ts in
        let r = ring_of t id in
        match phase with
        | Runtime_events.EV_MINOR -> r.minor_ns <- ns
        | Runtime_events.EV_MAJOR -> r.major_ns <- ns
        | _ -> ()
      in
      let runtime_end id ts phase =
        let ns = Runtime_events.Timestamp.to_int64 ts in
        let r = ring_of t id in
        match phase with
        | Runtime_events.EV_MINOR ->
            if r.minor_ns >= 0L then begin
              acc_add r.minor_pause (seconds_between r.minor_ns ns);
              r.minor_collections <- r.minor_collections + 1;
              r.minor_ns <- -1L
            end
        | Runtime_events.EV_MAJOR ->
            if r.major_ns >= 0L then begin
              acc_add r.major_pause (seconds_between r.major_ns ns);
              r.major_slices <- r.major_slices + 1;
              r.major_ns <- -1L
            end
        | _ -> ()
      in
      let lifecycle id _ts kind _arg =
        ignore (ring_of t id);
        match kind with
        | Runtime_events.EV_DOMAIN_SPAWN ->
            t.domain_spawns <- t.domain_spawns + 1
        | _ -> ()
      in
      let runtime_counter _id _ts counter n =
        match counter with
        | Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT ->
            t.forced_minors <- t.forced_minors + n
        | _ -> ()
      in
      let lost_events _id n = t.lost_events <- t.lost_events + n in
      t.callbacks <-
        Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter
          ~lifecycle ~lost_events ();
      Some t

let poll t =
  if not t.freed then
    (* Drain in bounded batches so one poll can't spin forever on a
       ring that fills as fast as it is read. *)
    let rec drain budget =
      if budget > 0 then
        let n = Runtime_events.read_poll t.cursor t.callbacks (Some 4096) in
        if n >= 4096 then drain (budget - 1)
    in
    drain 64

let stats t =
  let minor = acc_create () and major = acc_create () in
  let minors = ref 0 and majors = ref 0 in
  Hashtbl.iter
    (fun _ (r : ring) ->
      acc_merge ~into:minor r.minor_pause;
      acc_merge ~into:major r.major_pause;
      minors := !minors + r.minor_collections;
      majors := !majors + r.major_slices)
    t.rings;
  {
    minor_pause = acc_freeze minor;
    major_pause = acc_freeze major;
    minor_collections = !minors;
    major_slices = !majors;
    domains_seen = Hashtbl.length t.rings;
    domain_spawns = t.domain_spawns;
    forced_minors = t.forced_minors;
    lost_events = t.lost_events;
  }


let stop t =
  if not t.freed then begin
    t.freed <- true;
    (try Runtime_events.free_cursor t.cursor with _ -> ())
  end

let observe_into_telemetry ?(prefix = "gc") t =
  if Core.enabled () then begin
    let s = stats t in
    Core.merge_histogram (prefix ^ ".minor_pause_seconds") s.minor_pause;
    Core.merge_histogram (prefix ^ ".major_pause_seconds") s.major_pause;
    Core.gauge (prefix ^ ".minor_collections")
      (float_of_int s.minor_collections);
    Core.gauge (prefix ^ ".major_slices") (float_of_int s.major_slices);
    Core.gauge (prefix ^ ".domains_seen") (float_of_int s.domains_seen);
    Core.gauge (prefix ^ ".forced_minors") (float_of_int s.forced_minors);
    Core.gauge (prefix ^ ".lost_events") (float_of_int s.lost_events);
    if s.major_pause.Core.count > 0 then
      Core.gauge
        (prefix ^ ".major_pause_p99")
        (Core.quantile s.major_pause 0.99);
    if s.minor_pause.Core.count > 0 then
      Core.gauge
        (prefix ^ ".minor_pause_p99")
        (Core.quantile s.minor_pause 0.99)
  end
