(* Shared machinery of the workloads: run configuration, correctness
   accounting, clocks, set-up repetition, traced operations, and the
   result line. *)

module J = Diagnostics.Json_min

type config = {
  seed : int;
  seconds : float;  (** measuring time of the run *)
  trace : bool;  (** per-layer pass instead of end-to-end metrics *)
  out_dir : string;  (** where traces and result files go *)
  toy : bool;  (** tiny sizes for the self-test smoke run *)
}

type report = {
  attempted : int;
  failed : int;
  failures : string list;  (** first few failure messages *)
  metrics : (string * float) list;
}

(* ---------- correctness accounting ---------- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let checks () = { attempted = 0; failed = 0; failures = [] }

(* One operation attempted; it failed when [errors] is non-empty. *)
let record ck errors =
  ck.attempted <- ck.attempted + 1;
  if errors <> [] then begin
    ck.failed <- ck.failed + 1;
    if List.length ck.failures < 8 then
      ck.failures <- ck.failures @ [ String.concat "; " errors ]
  end

let expect cond msg = if cond then [] else [ msg ]

let report ck metrics =
  { attempted = ck.attempted; failed = ck.failed; failures = ck.failures; metrics }

(* ---------- clocks and resources ---------- *)

let now () = Telemetry.Clock.wall ()

(* User + system CPU of the whole process, every domain and thread. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let y = f () in
  (y, now () -. t0)

let domains () = Domain.recommended_domain_count ()

(* A "Vm...:  N kB" line of /proc/self/status, in MB. *)
let proc_status_mb field =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:(field ^ ":") l ->
              let skip = String.length field + 1 in
              Scanf.sscanf (String.sub l skip (String.length l - skip)) " %f kB" (fun kb ->
                  Some (kb /. 1024.0))
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None

(* Resident set samples: [sample_rss] records the current VmRSS (the
   major heap's size where there is no procfs), after every operation. *)
let rss_samples = ref []

let rss_lock = Mutex.create ()

let sample_rss () =
  let mb =
    match proc_status_mb "VmRSS" with
    | Some mb -> mb
    | None ->
        float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  Mutex.protect rss_lock (fun () -> rss_samples := mb :: !rss_samples)

(* The "cpu" line of /proc/stat: (steal, total) jiffies over every
   CPU, or zeros where there is none. *)
let host_jiffies () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"cpu " l ->
            let fields =
              List.filter_map int_of_string_opt (String.split_on_char ' ' l)
            in
            let steal = match List.nth_opt fields 7 with Some v -> v | None -> 0 in
            (steal, List.fold_left ( + ) 0 fields)
        | _ -> (0, 0))
  with Sys_error _ -> (0, 0)

let jiffies_at_start = host_jiffies ()

(* Share of the host's CPU time other guests stole from this VM since
   the process started: a slow spell on a shared host shows here. *)
let steal_frac () =
  let s1, t1 = host_jiffies () and s0, t0 = jiffies_at_start in
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* CPU and memory of the run. These are not end-to-end metrics: with
   worker domains coming and going, glibc's per-thread arenas make the
   resident set of identical multi-domain runs differ by a fifth, and
   process CPU time tracks a shared host's speed as wall time does. *)
let resource_metrics ~cpu_per_op =
  sample_rss ();
  let samples = Mutex.protect rss_lock (fun () -> Array.of_list !rss_samples) in
  [
    ("bench.host_steal_frac", steal_frac ());
    ("bench.cpu_s_per_op", cpu_per_op);
    ("bench.rss_mb_p50", Stats.median samples);
    ( "bench.rss_mb_peak",
      Option.value (proc_status_mb "VmHWM") ~default:(Array.fold_left Float.max 0.0 samples) );
  ]

(* ---------- host-speed calibration (calib.ml) ---------- *)

(* Wall time of one calibration probe. *)
let probe () = snd (time Calib.work)

(* Operations are timed between two probes, one right before and one
   right after (the one after an operation is the one before the next):
   an operation's probe is their mean, a sample of the host at both
   ends of it. *)
let bracket before after = (before +. after) /. 2.0

(* An operation's wall time in reference seconds: over its probe, times
   the probe's reference time. *)
let scaled ~wall ~probe = wall /. probe *. Calib.reference_s

let scaled_all walls probes = Array.map2 (fun wall probe -> scaled ~wall ~probe) walls probes

(* The end-to-end latency of a run: the 10 %-trimmed mean of its scaled
   operations. A median would jump between the two modes of a run whose
   operations are slowed in some spells and not in others; a mean would
   follow the one operation a host stall held up. *)
let scaled_latency walls probes = Stats.trimmed_mean (scaled_all walls probes) 0.1

(* Run [f] [reps] times (twice in a toy run) — each a complete set-up
   of the workload between two probes, the previous one disposed of —
   and keep the last; the reported set-up time is the median, in
   reference seconds. *)
let setup_repeated ~reps ?(dispose = ignore) cfg f =
  let reps = if cfg.toy then 2 else reps in
  let walls = Array.make reps 0.0 and probes = Array.make reps 0.0 in
  let rec go k before =
    let y, w = time f in
    let after = probe () in
    walls.(k) <- w;
    probes.(k) <- bracket before after;
    if k + 1 < reps then begin
      dispose y;
      go (k + 1) after
    end
    else y
  in
  let y = go 0 (probe ()) in
  (y, Stats.median (scaled_all walls probes))

type loop = {
  walls : float array;  (** per operation, as timed around [op] *)
  probes : float array;  (** each operation's probe ([bracket]) *)
  cpus : float array;  (** process CPU seconds of each operation *)
  gaps : float array;  (** harness time between consecutive operations *)
}

(* Closed loop: run [op k] for k = 0, 1, ... until [seconds] of
   operation time have elapsed, and then on to the end of the current
   [cycle] of operations, so every run covers its inputs in whole
   cycles. Only [op] is timed, between two probes; [after k y] — the
   correctness check — runs between operations, off the clock. [stop]
   ends the loop early. *)
let timed_loop ?(cycle = 1) ?(stop = fun _ -> false) ~seconds ~op ~after () =
  let walls = ref [] and probes = ref [] and cpus = ref [] and gaps = ref [] in
  let busy = ref 0.0 in
  let rec go k last_end before =
    let c0 = cpu_now () and t0 = now () in
    if k > 0 then gaps := (t0 -. last_end) :: !gaps;
    let y = op k in
    let t1 = now () in
    cpus := (cpu_now () -. c0) :: !cpus;
    let next = probe () in
    probes := bracket before next :: !probes;
    walls := (t1 -. t0) :: !walls;
    busy := !busy +. (t1 -. t0);
    sample_rss ();
    after k y;
    if (!busy < seconds || (k + 1) mod cycle <> 0) && not (stop (k + 1)) then
      go (k + 1) (now ()) next
  in
  let before = probe () in
  go 0 (now ()) before;
  let arr l = Array.of_list (List.rev l) in
  { walls = arr !walls; probes = arr !probes; cpus = arr !cpus; gaps = arr !gaps }

(* The end-to-end metrics every workload reports, both in reference
   seconds. *)
let end_to_end ~latency ~setup = [ ("latency_ref_s", latency); ("setup_s", setup) ]

(* The raw wall-time median the scaled latency came from, and the
   probe's median: how fast the host was during the run. *)
let host_metrics ~walls ~probes =
  [ ("bench.op_s_p50", Stats.median walls); ("bench.probe_s_p50", Stats.median probes) ]

(* ---------- traced operations ---------- *)

(* Run [f] under a fresh telemetry recorder on this domain, inside a
   ["bench.op"] span; returns the result, its wall time, and the
   snapshot as a trace part. *)
let traced ?label ~thread_name f =
  Telemetry.enable ();
  let base = Option.value (Telemetry.enabled_at ()) ~default:(now ()) in
  let y, wall = time (fun () -> Telemetry.span "bench.op" f) in
  let snapshot = Telemetry.snapshot () in
  Telemetry.disable ();
  let part =
    Option.map
      (fun snapshot ->
        {
          Telemetry.Merge.pid = Unix.getpid ();
          tid = 1;
          thread_name;
          label;
          base;
          snapshot;
        })
      snapshot
  in
  (y, wall, part)

(* Telemetry.Runtime GC monitor metrics: collections per operation and
   the longest major slice (the monitor's quantiles are bucket
   midpoints, too coarse to compare runs). *)
let gc_metrics monitor ~ops =
  match monitor with
  | None -> []
  | Some m ->
      Telemetry.Runtime.poll m;
      let s = Telemetry.Runtime.stats m in
      Telemetry.Runtime.stop m;
      [
        ( "telemetry.gc.minor_collections",
          float_of_int s.Telemetry.Runtime.minor_collections /. float_of_int (max 1 ops) );
        ( "telemetry.gc.major_pause_max_s",
          if s.Telemetry.Runtime.major_pause.Telemetry.count > 0 then
            s.Telemetry.Runtime.major_pause.Telemetry.max
          else 0.0 );
      ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Write [<out>/<workload>.trace.json] in the merged Chrome format
   [rfss report] reads; [summary] goes under its "rfss" key. *)
let write_trace cfg ~workload ~summary parts =
  mkdir_p cfg.out_dir;
  let file = Filename.concat cfg.out_dir (workload ^ ".trace.json") in
  Out_channel.with_open_text file (fun oc ->
      Telemetry.Merge.write_chrome ~process_name:("rfssbench " ^ workload)
        ~extra:[ ("rfss", J.to_string (J.Obj summary)) ]
        oc parts)

(* ---------- result line ---------- *)

let metric_json name v =
  let unit_ = (Option.get (Metrics.find name)).Metrics.unit_ in
  let value = if Float.is_finite v then J.Num v else J.Null in
  let extra =
    (* A scaling efficiency needs two cores; say so rather than report
       a 1-core number as if it meant something. *)
    if name = "engine.sweep.scaling_eff" && Float.is_nan v then
      [ ("unmeasurable", J.Str (Printf.sprintf "%d core" (domains ()))) ]
    else []
  in
  (name, J.Obj ([ ("value", value); ("unit", J.Str unit_) ] @ extra))

let result_json r ~names =
  let value name = Option.value (List.assoc_opt name r.metrics) ~default:0.0 in
  J.Obj
    [
      ("correct", J.Bool (r.failed = 0 && r.attempted > 0));
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ("metrics", J.Obj (List.map (fun n -> metric_json n (value n)) names));
    ]
