type kind = Counter | Gauge

type sample = {
  name : string;
  labels : (string * string) list;
  kind : kind;
  value : float;
  help : string option;
}

type hsample = {
  h_name : string;
  h_labels : (string * string) list;
  h_help : string option;
  h_hist : Telemetry.histogram;
}

type t = {
  table : (string, sample) Hashtbl.t;
  hist_table : (string, hsample) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; hist_table = Hashtbl.create 8 }

let key name labels =
  name ^ "\x00"
  ^ String.concat "\x00" (List.map (fun (k, v) -> k ^ "\x01" ^ v) labels)

let add ?help ?(labels = []) registry kind name value =
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  Hashtbl.replace registry.table (key name labels)
    { name; labels; kind; value; help }

let counter ?help ?labels registry name value =
  add ?help ?labels registry Counter name value

let gauge ?help ?labels registry name value =
  add ?help ?labels registry Gauge name value

let histogram ?help ?(labels = []) registry name hist =
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  Hashtbl.replace registry.hist_table (key name labels)
    { h_name = name; h_labels = labels; h_help = help; h_hist = hist }

let samples registry =
  Hashtbl.fold (fun _ s acc -> s :: acc) registry.table []
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let histograms registry =
  Hashtbl.fold
    (fun _ h acc -> (h.h_name, h.h_labels, h.h_hist) :: acc)
    registry.hist_table []
  |> List.sort compare

let sorted_hsamples registry =
  Hashtbl.fold (fun _ h acc -> h :: acc) registry.hist_table []
  |> List.sort (fun a b ->
         match compare a.h_name b.h_name with
         | 0 -> compare a.h_labels b.h_labels
         | c -> c)

let of_telemetry ?registry snapshot =
  let r = match registry with Some r -> r | None -> create () in
  List.iter
    (fun (name, v) -> counter r name (float_of_int v))
    snapshot.Telemetry.counters;
  List.iter (fun (name, v) -> gauge r name v) snapshot.Telemetry.gauges;
  (* Real histogram families (bucket counts survive into Prometheus
     exposition). min/max have no place in the Prometheus histogram
     shape, so they ride along as sibling gauges under distinct family
     names — a stat-labelled gauge under the histogram's own name would
     collide with the [_bucket]/[_sum]/[_count] series. *)
  List.iter
    (fun (name, h) ->
      histogram r name h;
      gauge r (name ^ ".min") h.Telemetry.min;
      gauge r (name ^ ".max") h.Telemetry.max)
    snapshot.Telemetry.histograms;
  (* Aggregate the span tree by span name: total wall/cpu and call
     counts, regardless of where in the hierarchy a span ran. *)
  let summary = Telemetry.Summary.of_snapshot snapshot in
  let acc : (string, float * float * int) Hashtbl.t = Hashtbl.create 16 in
  let rec walk (node : Telemetry.Summary.node) =
    let w, c, n =
      match Hashtbl.find_opt acc node.name with
      | Some x -> x
      | None -> (0.0, 0.0, 0)
    in
    Hashtbl.replace acc node.name
      (w +. node.wall, c +. node.cpu, n + node.calls);
    List.iter walk node.children
  in
  List.iter walk summary.roots;
  Hashtbl.iter
    (fun span (wall, cpu, calls) ->
      let labels = [ ("span", span) ] in
      gauge ~labels r "span.wall_seconds" wall;
      gauge ~labels r "span.cpu_seconds" cpu;
      counter ~labels r "span.calls" (float_of_int calls))
    acc;
  r

(* ---------- name and value rendering ---------- *)

let sanitize_name ?kind name =
  let buf = Buffer.create (String.length name + 8) in
  if not (String.length name >= 5 && String.sub name 0 5 = "rfss_") then
    Buffer.add_string buf "rfss_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
          Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  let base = Buffer.contents buf in
  match kind with
  | Some Counter
    when not
           (String.length base >= 6
           && String.sub base (String.length base - 6) 6 = "_total") ->
      base ^ "_total"
  | _ -> base

let render_value f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let sanitize_label_key k =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    k

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_label_key k)
                 (escape_label_value v))
             labels)
      ^ "}"

(* Prometheus's own convention for the +Inf bucket bound. *)
let render_le v = if v = infinity then "+Inf" else render_value v

let to_prometheus registry =
  let buf = Buffer.create 1024 in
  let seen_family : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let header family ~help ~fallback type_str =
    if not (Hashtbl.mem seen_family family) then begin
      Hashtbl.add seen_family family ();
      let help = Option.value ~default:fallback help in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" family
           (String.map (fun c -> if c = '\n' then ' ' else c) help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family type_str)
    end
  in
  List.iter
    (fun s ->
      let family = sanitize_name ~kind:s.kind s.name in
      let kind_str =
        match s.kind with Counter -> "counter" | Gauge -> "gauge"
      in
      header family ~help:s.help
        ~fallback:(Printf.sprintf "rfss %s %s" kind_str s.name)
        kind_str;
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" family (render_labels s.labels)
           (render_value s.value)))
    (samples registry);
  List.iter
    (fun h ->
      let family = sanitize_name h.h_name in
      header family ~help:h.h_help
        ~fallback:(Printf.sprintf "rfss histogram %s" h.h_name)
        "histogram";
      let cumulative = ref 0 in
      Array.iteri
        (fun i n ->
          cumulative := !cumulative + n;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" family
               (render_labels
                  (h.h_labels @ [ ("le", render_le (Telemetry.bucket_le i)) ]))
               !cumulative))
        h.h_hist.Telemetry.buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" family (render_labels h.h_labels)
           (render_value h.h_hist.Telemetry.sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" family (render_labels h.h_labels)
           h.h_hist.Telemetry.count))
    (sorted_hsamples registry);
  Buffer.contents buf

(* ---------- CSV ---------- *)

let csv_quote field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else field

(* Flatten a histogram into summary stats — the CSV and JSON formats
   have no native bucket shape, and the quantiles are what a reader of
   those formats actually wants. *)
let hist_stats (h : Telemetry.histogram) =
  [
    ("count", float_of_int h.Telemetry.count);
    ("sum", h.Telemetry.sum);
    ("min", h.Telemetry.min);
    ("max", h.Telemetry.max);
    ("p50", Telemetry.quantile h 0.50);
    ("p90", Telemetry.quantile h 0.90);
    ("p99", Telemetry.quantile h 0.99);
  ]

let to_csv registry =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,labels,kind,value\n";
  let row name labels kind value =
    let labels =
      String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    in
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s\n"
         (csv_quote (sanitize_name name))
         (csv_quote labels) kind (render_value value))
  in
  List.iter
    (fun s ->
      row s.name s.labels
        (match s.kind with Counter -> "counter" | Gauge -> "gauge")
        s.value)
    (samples registry);
  List.iter
    (fun h ->
      List.iter
        (fun (stat, v) -> row h.h_name (h.h_labels @ [ ("stat", stat) ]) "gauge" v)
        (hist_stats h.h_hist))
    (sorted_hsamples registry);
  Buffer.contents buf

(* ---------- parsers (round-trip validation) ---------- *)

let parse_float_special s =
  match s with
  | "+Inf" | "Inf" -> Some infinity
  | "-Inf" -> Some neg_infinity
  | "NaN" -> Some nan
  | _ -> float_of_string_opt s

(* Escaped label values can contain any character — including [,], [}]
   and escaped quotes — so the label set needs a real scanner, not a
   split on separators. *)
let parse_label_set line start =
  let n = String.length line in
  let pairs = ref [] in
  let i = ref (start + 1) in
  let skip c = if !i < n && line.[!i] = c then incr i in
  let rec go () =
    if !i >= n then failwith ("unterminated label set: " ^ line)
    else if line.[!i] = '}' then incr i
    else begin
      let eq =
        match String.index_from_opt line !i '=' with
        | Some e -> e
        | None -> failwith ("bad label pair: " ^ line)
      in
      let k = String.sub line !i (eq - !i) in
      i := eq + 1;
      if !i >= n || line.[!i] <> '"' then
        failwith ("unquoted label value: " ^ line);
      incr i;
      let buf = Buffer.create 16 in
      let rec value () =
        if !i >= n then failwith ("unterminated label value: " ^ line)
        else
          match line.[!i] with
          | '"' -> incr i
          | '\\' ->
              (if !i + 1 >= n then
                 failwith ("dangling escape in label value: " ^ line)
               else
                 match line.[!i + 1] with
                 | 'n' -> Buffer.add_char buf '\n'
                 | '\\' -> Buffer.add_char buf '\\'
                 | '"' -> Buffer.add_char buf '"'
                 | c -> Buffer.add_char buf c);
              i := !i + 2;
              value ()
          | c ->
              Buffer.add_char buf c;
              incr i;
              value ()
      in
      value ();
      pairs := (k, Buffer.contents buf) :: !pairs;
      skip ',';
      go ()
    end
  in
  go ();
  (List.rev !pairs, !i)

let parse_prometheus text =
  (* Escaped newlines keep every sample on one physical line, so a
     per-line split is safe here (unlike CSV below). *)
  let lines = String.split_on_char '\n' text in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else begin
        let name_end =
          match String.index_opt line '{' with
          | Some i -> i
          | None -> (
              match String.index_opt line ' ' with
              | Some i -> i
              | None -> failwith ("metric line without value: " ^ line))
        in
        let name = String.sub line 0 name_end in
        let labels, rest_start =
          if line.[name_end] = '{' then parse_label_set line name_end
          else ([], name_end)
        in
        let value_str =
          String.trim
            (String.sub line rest_start (String.length line - rest_start))
        in
        match parse_float_special value_str with
        | Some v -> Some (name, labels, v)
        | None -> failwith ("bad metric value: " ^ line)
      end)
    lines
