let num = Json.float "%.9e"

let write_jsonl oc (s : Core.snapshot) =
  let line fmt = Printf.fprintf oc (fmt ^^ "\n") in
  Array.iter
    (fun ev ->
      match ev with
      | Core.Span_begin { id; parent; name; wall; cpu } ->
          line "{\"ev\":\"begin\",\"id\":%d,\"parent\":%d,\"name\":%s,\"t\":%s,\"cpu\":%s}"
            id parent (Json.quote name) (num wall) (num cpu)
      | Core.Span_end { id; name; wall; cpu } ->
          line "{\"ev\":\"end\",\"id\":%d,\"name\":%s,\"t\":%s,\"cpu\":%s}" id
            (Json.quote name) (num wall) (num cpu))
    s.events;
  List.iter
    (fun (k, v) ->
      line "{\"ev\":\"counter\",\"name\":%s,\"total\":%d}" (Json.quote k) v)
    s.counters;
  List.iter
    (fun (k, v) ->
      line "{\"ev\":\"gauge\",\"name\":%s,\"value\":%s}" (Json.quote k)
        (num v))
    s.gauges;
  List.iter
    (fun (k, (h : Core.histogram)) ->
      line
        "{\"ev\":\"histogram\",\"name\":%s,\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}"
        (Json.quote k) h.count (num h.sum) (num h.min)
        (num h.max)
        (num (Core.quantile h 0.50))
        (num (Core.quantile h 0.90))
        (num (Core.quantile h 0.99)))
    s.histograms;
  line "{\"ev\":\"summary\",\"duration\":%s}" (num s.duration)

(* Chrome trace_event format: timestamps in microseconds relative to
   the recorder's enable instant. A single-snapshot trace is just the
   degenerate one-part merge ({!Merge} is the full multi-domain
   writer); names pass through the same JSON escaping as the merged
   path, so quotes/backslashes in span names can't corrupt the file. *)
let write_chrome oc (s : Core.snapshot) =
  Merge.write_chrome oc
    [
      {
        Merge.pid = 1;
        tid = 1;
        thread_name = "main";
        label = None;
        base = 0.0;
        snapshot = s;
      };
    ]
