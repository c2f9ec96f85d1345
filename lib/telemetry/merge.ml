type part = {
  pid : int;
  tid : int;
  thread_name : string;
  label : string option;
  base : float;
  snapshot : Core.snapshot;
}

(* One Chrome trace_event document from many per-domain snapshots.

   Each part carries the absolute wall instant its snapshot's t=0
   corresponds to ([Core.enabled_at] of the recorder that produced it),
   so events from recorders enabled at different times land on one
   shared time axis: ts = (base - min base + event wall) in µs. Output
   is fully deterministic — parts are sorted by (pid, tid, base, label)
   and every event keeps its snapshot order — so two runs on the fake
   clock produce byte-identical traces. *)

let us t = t *. 1e6

let sorted_parts parts =
  List.stable_sort
    (fun a b ->
      match compare a.pid b.pid with
      | 0 -> (
          match compare a.tid b.tid with
          | 0 -> (
              match compare a.base b.base with
              | 0 -> compare a.label b.label
              | c -> c)
          | c -> c)
      | c -> c)
    parts

let dedup_keep_order key xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

let write_chrome ?(process_name = "rfss") ?(extra = []) oc parts =
  let parts = sorted_parts parts in
  let t0 =
    List.fold_left (fun acc p -> Float.min acc p.base) infinity parts
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let out fmt = Printf.fprintf oc fmt in
  let first = ref true in
  let event fmt =
    if !first then first := false else out ",\n";
    out fmt
  in
  out "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  (* Metadata first: one process_name per pid, one thread_name per
     (pid, tid). Perfetto uses these to label the lanes. *)
  List.iter
    (fun p ->
      event "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}"
        p.pid p.tid (Json.quote process_name))
    (dedup_keep_order (fun p -> p.pid) parts);
  List.iter
    (fun p ->
      event "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}"
        p.pid p.tid (Json.quote p.thread_name))
    (dedup_keep_order (fun p -> (p.pid, p.tid)) parts);
  List.iter
    (fun p ->
      let ts w = Json.float "%.9e" (us (p.base -. t0 +. w)) in
      (match p.label with
      | Some label ->
          (* Thread-scoped instant event marking the part (job)
             boundary at its first recorded instant. *)
          event
            "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"cat\":\"job\",\"name\":%s,\"ts\":%s}"
            p.pid p.tid (Json.quote label) (ts 0.0)
      | None -> ());
      Array.iter
        (fun ev ->
          match ev with
          | Core.Span_begin { name; wall; _ } ->
              event
                "{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"cat\":\"solve\",\"name\":%s,\"ts\":%s}"
                p.pid p.tid (Json.quote name) (ts wall)
          | Core.Span_end { name; wall; _ } ->
              event
                "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"cat\":\"solve\",\"name\":%s,\"ts\":%s}"
                p.pid p.tid (Json.quote name) (ts wall))
        p.snapshot.Core.events;
      List.iter
        (fun (k, v) ->
          event
            "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"name\":%s,\"ts\":%s,\"args\":{\"value\":%d}}"
            p.pid p.tid (Json.quote k)
            (ts p.snapshot.Core.duration)
            v)
        p.snapshot.Core.counters;
      List.iter
        (fun (k, v) ->
          event
            "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"name\":%s,\"ts\":%s,\"args\":{\"value\":%s}}"
            p.pid p.tid (Json.quote k)
            (ts p.snapshot.Core.duration)
            (Json.float "%.9e" v))
        p.snapshot.Core.gauges)
    parts;
  out "\n]";
  (* Extra top-level sections (pre-rendered JSON values): trace viewers
     ignore unknown keys, while [rfss report] reads them back. *)
  List.iter (fun (key, json) -> out ",%s:%s" (Json.quote key) json) extra;
  out "}\n"
