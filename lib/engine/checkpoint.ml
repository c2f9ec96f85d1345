type record = {
  key : string;
  label : string;
  engine : string;
  f_fast : float;
  fd : float;
  status : string;
  converged : bool;
  newton : int;
  residual : float;
  h1 : float;
  thd : float;
  waveform_hash : string;
  attempts : int;
  wall_seconds : float;
  message : string;
  stage : string option;
  backtrace : string option;
  report : string option;
}

(* ---------- hashing ----------

   The job key is the versioned canonical identity from [Key]
   (rfss.key/1); the waveform fingerprint and the per-record digest
   use the same FNV-1a primitives, from [Telemetry.Fnv]. *)

open Telemetry.Fnv

let waveform_hash (w : Backend.Result.waveform) =
  let h = ref basis in
  Array.iter (fun v -> h := mix_float !h v) w.Backend.Result.times;
  Array.iter (fun v -> h := mix_float !h v) w.Backend.Result.values;
  hex !h

let digest r =
  let h = basis in
  let h = mix_string h r.key in
  let h = mix_string h r.label in
  let h = mix_string h r.engine in
  let h = mix_float h r.f_fast in
  let h = mix_float h r.fd in
  let h = mix_string h r.status in
  let h = mix_int h (if r.converged then 1 else 0) in
  let h = mix_int h r.newton in
  let h = mix_float h r.residual in
  let h = mix_float h r.h1 in
  let h = mix_float h r.thd in
  let h = mix_string h r.waveform_hash in
  let h = mix_int h r.attempts in
  let h = mix_string h r.message in
  let h = mix_string h (Option.value r.stage ~default:"") in
  let h = mix_string h (Option.value r.backtrace ~default:"") in
  let h = mix_string h (Option.value r.report ~default:"") in
  hex h

(* ---------- serialization ----------

   Hand-formatted: the tree emitter writes a NaN as null, and sweep
   metrics (h1, thd) are legitimately NaN on error rows. Floats go out
   as %.17g, non-finite ones as the quoted strings of [J.float]. *)

module J = Telemetry.Json

let float17 = J.float "%.17g"

let to_line r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"v\":1";
  let field name value =
    Buffer.add_string b ",\"";
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    Buffer.add_string b value
  in
  field "key" (J.quote r.key);
  field "label" (J.quote r.label);
  field "engine" (J.quote r.engine);
  field "f_fast" (float17 r.f_fast);
  field "fd" (float17 r.fd);
  field "status" (J.quote r.status);
  field "converged" (string_of_bool r.converged);
  field "newton" (string_of_int r.newton);
  field "residual" (float17 r.residual);
  field "h1" (float17 r.h1);
  field "thd" (float17 r.thd);
  field "waveform_hash" (J.quote r.waveform_hash);
  field "attempts" (string_of_int r.attempts);
  field "wall_seconds" (float17 r.wall_seconds);
  field "message" (J.quote r.message);
  (match r.stage with Some s -> field "stage" (J.quote s) | None -> ());
  (match r.backtrace with Some s -> field "backtrace" (J.quote s) | None -> ());
  (* The report is itself JSON, but it is stored as an escaped string:
     embedding it as a sub-object would re-emit through J.to_string on
     load, which does not round-trip float formatting byte-for-byte —
     and the digest must. *)
  (match r.report with Some j -> field "report" (J.quote j) | None -> ());
  field "digest" (J.quote (digest r));
  Buffer.add_char b '}';
  Buffer.contents b

let float_of_json = function
  | J.Num v -> Some v
  | J.Str "nan" -> Some Float.nan
  | J.Str "inf" -> Some Float.infinity
  | J.Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let of_line line =
  match J.parse line with
  | exception J.Parse_error _ -> None
  | j ->
      let open J in
      let str_f name = Option.bind (member name j) str in
      let num_f name = Option.bind (member name j) float_of_json in
      let int_f name =
        Option.map int_of_float (Option.bind (member name j) num)
      in
      let bool_f name = Option.bind (member name j) bool in
      (match
         ( str_f "key",
           str_f "label",
           str_f "engine",
           num_f "f_fast",
           num_f "fd",
           str_f "status",
           bool_f "converged",
           int_f "newton",
           num_f "residual",
           num_f "h1",
           num_f "thd",
           str_f "waveform_hash",
           int_f "attempts",
           num_f "wall_seconds",
           str_f "message",
           str_f "digest" )
       with
      | ( Some key,
          Some label,
          Some engine,
          Some f_fast,
          Some fd,
          Some status,
          Some converged,
          Some newton,
          Some residual,
          Some h1,
          Some thd,
          Some waveform_hash,
          Some attempts,
          Some wall_seconds,
          Some message,
          Some stored_digest ) ->
          let r =
            {
              key;
              label;
              engine;
              f_fast;
              fd;
              status;
              converged;
              newton;
              residual;
              h1;
              thd;
              waveform_hash;
              attempts;
              wall_seconds;
              message;
              stage = str_f "stage";
              backtrace = str_f "backtrace";
              report = str_f "report";
            }
          in
          if digest r = stored_digest then Some r else None
      | _ -> None)

let of_outcome (o : Sweep.outcome) =
  let j = o.Sweep.job in
  let p = j.Sweep.problem in
  let engine = Backend.kind_name j.Sweep.engine.Backend.kind in
  let key =
    Key.hash ~label:j.Sweep.label ~engine ~f_fast:p.Problem.f_fast
      ~fd:p.Problem.fd ~options:j.Sweep.engine.Backend.options
  in
  match o.Sweep.result with
  | Ok r ->
      let metric names =
        Option.value ~default:Float.nan
          (List.find_map
             (fun n -> List.assoc_opt n r.Backend.Result.metrics)
             names)
      in
      {
        key;
        label = j.Sweep.label;
        engine;
        f_fast = p.Problem.f_fast;
        fd = p.Problem.fd;
        status = (if o.Sweep.degraded then "degraded" else "ok");
        converged = r.Backend.Result.converged;
        newton = r.Backend.Result.newton_iterations;
        residual = r.Backend.Result.residual_norm;
        h1 = metric [ "h1_amplitude"; "baseband_h1" ];
        thd = metric [ "thd" ];
        waveform_hash = waveform_hash r.Backend.Result.waveform;
        attempts = o.Sweep.attempts;
        wall_seconds = o.Sweep.wall_seconds;
        message = "";
        stage = None;
        backtrace = None;
        report = Some (Resilience.Report.to_json_string r.Backend.Result.report);
      }
  | Error f ->
      {
        key;
        label = j.Sweep.label;
        engine;
        f_fast = p.Problem.f_fast;
        fd = p.Problem.fd;
        status = "error";
        converged = false;
        newton = 0;
        residual = Float.nan;
        h1 = Float.nan;
        thd = Float.nan;
        waveform_hash = "";
        attempts = o.Sweep.attempts;
        wall_seconds = o.Sweep.wall_seconds;
        message = f.Sweep.message;
        stage = f.Sweep.stage;
        backtrace = f.Sweep.backtrace;
        report = None;
      }

(* The rows of [rfss sweep --format json]: one object per record, an
   error row carrying its message, stage and backtrace in place of the
   solve figures. *)
let rows_json ~no_wall records =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "[";
  Array.iteri
    (fun i r ->
      if i > 0 then add ",";
      add "\n  {\"label\":%s,\"engine\":%s,\"fast\":%s,\"fd\":%s,\"status\":%s,\"attempts\":%d"
        (J.quote r.label) (J.quote r.engine) (J.float "%.9e" r.f_fast)
        (J.float "%.9e" r.fd) (J.quote r.status) r.attempts;
      if r.status = "error" then begin
        add ",\"message\":%s" (J.quote r.message);
        Option.iter (fun s -> add ",\"stage\":%s" (J.quote s)) r.stage;
        Option.iter (fun s -> add ",\"backtrace\":%s" (J.quote s)) r.backtrace
      end
      else
        add
          ",\"converged\":%b,\"newton\":%d,\"residual\":%s,\"h1\":%s,\"thd\":%s,\"waveform_hash\":%s"
          r.converged r.newton (J.float "%.6e" r.residual) (J.float "%.6e" r.h1)
          (J.float "%.6e" r.thd) (J.quote r.waveform_hash);
      if not no_wall then add ",\"wall_seconds\":%s" (J.float "%.6f" r.wall_seconds);
      add "}")
    records;
  add "\n]\n";
  Buffer.contents b

let load path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            match of_line line with
            | Some r -> go (r :: acc)
            | None -> go acc (* torn or corrupt line: skip, re-run job *))
      in
      go []

(* ---------- writer ---------- *)

type t = {
  path : string;
  mutex : Mutex.t;
  mutable recs : record list;  (* newest first *)
}

let create path = { path; mutex = Mutex.create (); recs = List.rev (load path) }

let records t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  List.rev t.recs

let find t ~key = List.find_opt (fun r -> r.key = key) (records t)

(* Rewrite the whole log via temp + rename. Appending in place would be
   cheaper, but a crash mid-append leaves a torn last line; the rename
   makes every on-disk state a complete, parseable log — which is the
   invariant the kill-and-resume chaos test checks. *)
let flush_locked t =
  let tmp = t.path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     List.iter
       (fun r ->
         output_string oc (to_line r);
         output_char oc '\n')
       (List.rev t.recs);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp t.path

let append t r =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  t.recs <- r :: List.filter (fun x -> x.key <> r.key) t.recs;
  flush_locked t
