type node = {
  name : string;
  calls : int;
  wall : float;
  cpu : float;
  self : float;
  children : node list;
}

type t = {
  duration : float;
  roots : node list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Core.histogram) list;
}

(* Mutable aggregation node: spans with the same name under the same
   parent merge into one entry. *)
type acc = {
  a_name : string;
  mutable a_calls : int;
  mutable a_wall : float;
  mutable a_cpu : float;
  a_children : (string, acc) Hashtbl.t;
  a_order : string Queue.t;  (** first-seen order, for stable output *)
}

let acc_create name =
  {
    a_name = name;
    a_calls = 0;
    a_wall = 0.0;
    a_cpu = 0.0;
    a_children = Hashtbl.create 4;
    a_order = Queue.create ();
  }

let child_of parent name =
  match Hashtbl.find_opt parent.a_children name with
  | Some a -> a
  | None ->
      let a = acc_create name in
      Hashtbl.add parent.a_children name a;
      Queue.add name parent.a_order;
      a

let rec freeze acc =
  let children =
    Queue.fold
      (fun l name -> freeze (Hashtbl.find acc.a_children name) :: l)
      [] acc.a_order
    |> List.sort (fun a b -> compare b.wall a.wall)
  in
  let child_wall = List.fold_left (fun s c -> s +. c.wall) 0.0 children in
  {
    name = acc.a_name;
    calls = acc.a_calls;
    wall = acc.a_wall;
    cpu = acc.a_cpu;
    self = Float.max 0.0 (acc.a_wall -. child_wall);
    children;
  }

let of_snapshot (s : Core.snapshot) =
  let root = acc_create "" in
  (* Stack of (acc, begin_wall, begin_cpu); the event log is well-nested
     by construction (snapshot closes open spans). *)
  let stack = ref [] in
  Array.iter
    (fun ev ->
      match ev with
      | Core.Span_begin { name; wall; cpu; _ } ->
          let parent = match !stack with (a, _, _) :: _ -> a | [] -> root in
          stack := (child_of parent name, wall, cpu) :: !stack
      | Core.Span_end { wall; cpu; _ } -> (
          match !stack with
          | (a, w0, c0) :: rest ->
              a.a_calls <- a.a_calls + 1;
              a.a_wall <- a.a_wall +. (wall -. w0);
              a.a_cpu <- a.a_cpu +. (cpu -. c0);
              stack := rest
          | [] -> ()))
    s.events;
  {
    duration = s.duration;
    roots = (freeze root).children;
    counters = s.counters;
    gauges = s.gauges;
    histograms = s.histograms;
  }

let total_wall t = List.fold_left (fun s n -> s +. n.wall) 0.0 t.roots

let pp ppf t =
  let open Format in
  fprintf ppf "@[<v>span summary (%.3fs instrumented, %.3fs in spans)@,"
    t.duration (total_wall t);
  let rec pp_node depth n =
    fprintf ppf "  %-*s%-*s calls=%-6d total=%8.3fs  self=%8.3fs  cpu=%8.3fs@,"
      (2 * depth) "" (max 4 (36 - (2 * depth))) n.name n.calls n.wall n.self
      n.cpu;
    List.iter (pp_node (depth + 1)) n.children
  in
  List.iter (pp_node 0) t.roots;
  if t.counters <> [] then begin
    fprintf ppf "counters@,";
    List.iter (fun (k, v) -> fprintf ppf "  %-36s %d@," k v) t.counters
  end;
  if t.gauges <> [] then begin
    fprintf ppf "gauges@,";
    List.iter (fun (k, v) -> fprintf ppf "  %-36s %g@," k v) t.gauges
  end;
  if t.histograms <> [] then begin
    fprintf ppf "histograms@,";
    List.iter
      (fun (k, (h : Core.histogram)) ->
        fprintf ppf
          "  %-36s n=%d mean=%g min=%g max=%g p50=%g p90=%g p99=%g@," k h.count
          (if h.count > 0 then h.sum /. float_of_int h.count else 0.0)
          h.min h.max (Core.quantile h 0.50) (Core.quantile h 0.90)
          (Core.quantile h 0.99))
      t.histograms
  end;
  fprintf ppf "@]"

let num = Json.float "%.9e"

let add_json buf t =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec add_node n =
    add "{\"name\":%s,\"calls\":%d,\"wall\":%s,\"self\":%s,\"cpu\":%s"
      (Json.quote n.name) n.calls (num n.wall) (num n.self)
      (num n.cpu);
    add ",\"children\":[";
    List.iteri
      (fun i c ->
        if i > 0 then add ",";
        add_node c)
      n.children;
    add "]}"
  in
  add "{\"duration\":%s,\"spans\":[" (num t.duration);
  List.iteri
    (fun i n ->
      if i > 0 then add ",";
      add_node n)
    t.roots;
  add "],\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then add ",";
      add "%s:%d" (Json.quote k) v)
    t.counters;
  add "},\"gauges\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then add ",";
      add "%s:%s" (Json.quote k) (num v))
    t.gauges;
  add "},\"histograms\":{";
  List.iteri
    (fun i (k, (h : Core.histogram)) ->
      if i > 0 then add ",";
      add
        "%s:{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}"
        (Json.quote k) h.count (num h.sum) (num h.min)
        (num h.max)
        (num (Core.quantile h 0.50))
        (num (Core.quantile h 0.90))
        (num (Core.quantile h 0.99)))
    t.histograms;
  add "}}"
