type site = Residual | Jacobian | Gmres | Newton_iter | Job

type kind =
  | Nan
  | Inf
  | Singular
  | Ill_conditioned
  | Stall
  | Crash
  | Slow
  | Kill

type trigger = Nth of { first : int; count : int } | Prob of float

type fault = {
  kind : kind;
  site : site;
  filter : string option;
  trigger : trigger;
  magnitude : float option;
}

type plan = { seed : int; faults : fault array }

exception
  Injected_crash of { site : string; occurrence : int; context : string }

let () =
  Printexc.register_printer (function
    | Injected_crash { site; occurrence; context } ->
        Some
          (Printf.sprintf "Faultinject.Injected_crash(%s #%d at %s)" site
             occurrence context)
    | _ -> None)

let site_name = function
  | Residual -> "residual"
  | Jacobian -> "jacobian"
  | Gmres -> "gmres"
  | Newton_iter -> "newton"
  | Job -> "job"

let kind_name = function
  | Nan -> "nan"
  | Inf -> "inf"
  | Singular -> "singular"
  | Ill_conditioned -> "illcond"
  | Stall -> "stall"
  | Crash -> "crash"
  | Slow -> "slow"
  | Kill -> "kill"

(* ---------- deterministic PRNG ---------- *)

(* splitmix64 finalizer over an FNV-1a accumulated key. No global RNG
   state: the same (seed, salt, index) always yields the same draw, on
   any domain, in any interleaving. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let uniform ~seed ~salt index =
  let open Telemetry.Fnv in
  let h = mix_byte (mix_bytes (mix_byte basis seed) salt) index in
  let bits = Int64.shift_right_logical (mix64 h) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* ---------- parsing ---------- *)

let kind_of_name = function
  | "nan" -> Some Nan
  | "inf" -> Some Inf
  | "singular" -> Some Singular
  | "illcond" -> Some Ill_conditioned
  | "stall" -> Some Stall
  | "crash" -> Some Crash
  | "slow" -> Some Slow
  | "kill" -> Some Kill
  | _ -> None

let site_of_name = function
  | "residual" -> Some Residual
  | "jacobian" -> Some Jacobian
  | "gmres" -> Some Gmres
  | "newton" -> Some Newton_iter
  | "job" -> Some Job
  | _ -> None

let parse_trigger s =
  if String.length s > 0 && s.[0] = '~' then
    match float_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some p when p >= 0.0 && p <= 1.0 -> Some (Prob p)
    | _ -> None
  else
    match String.index_opt s 'x' with
    | None -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Some (Nth { first = n; count = 1 })
        | _ -> None)
    | Some i -> (
        let first = int_of_string_opt (String.sub s 0 i) in
        let count =
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        in
        match (first, count) with
        | Some f, Some c when f >= 1 && c >= 1 ->
            Some (Nth { first = f; count = c })
        | _ -> None)

let parse_item item =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt item '@' with
  | None -> fail "fault %S: missing '@SITE'" item
  | Some at -> (
      let kind_s = String.sub item 0 at in
      let rest = String.sub item (at + 1) (String.length item - at - 1) in
      match String.rindex_opt rest ':' with
      | None -> fail "fault %S: missing ':TRIGGER'" item
      | Some colon -> (
          let site_filter = String.sub rest 0 colon in
          let trig_mag =
            String.sub rest (colon + 1) (String.length rest - colon - 1)
          in
          let site_s, filter =
            match String.index_opt site_filter '/' with
            | None -> (site_filter, None)
            | Some sl ->
                ( String.sub site_filter 0 sl,
                  Some
                    (String.sub site_filter (sl + 1)
                       (String.length site_filter - sl - 1)) )
          in
          let trig_s, magnitude =
            match String.index_opt trig_mag '=' with
            | None -> (trig_mag, None)
            | Some eq -> (
                let m =
                  String.sub trig_mag (eq + 1) (String.length trig_mag - eq - 1)
                in
                match float_of_string_opt m with
                | Some f -> (String.sub trig_mag 0 eq, Some f)
                | None -> (trig_mag, None))
          in
          match (kind_of_name kind_s, site_of_name site_s) with
          | None, _ -> fail "fault %S: unknown kind %S" item kind_s
          | _, None -> fail "fault %S: unknown site %S" item site_s
          | Some kind, Some site -> (
              match parse_trigger trig_s with
              | None -> fail "fault %S: bad trigger %S" item trig_s
              | Some trigger -> Ok { kind; site; filter; trigger; magnitude })))

let parse spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go seed faults = function
    | [] -> Ok { seed; faults = Array.of_list (List.rev faults) }
    | item :: rest -> (
        match String.index_opt item '=' with
        | Some eq
          when String.sub item 0 eq = "seed"
               && not (String.contains item '@') -> (
            match
              int_of_string_opt
                (String.sub item (eq + 1) (String.length item - eq - 1))
            with
            | Some s -> go s faults rest
            | None -> Error (Printf.sprintf "bad seed in %S" item))
        | _ -> (
            match parse_item item with
            | Ok f -> go seed (f :: faults) rest
            | Error _ as e -> e))
  in
  go 0 [] items

let parse_exn spec =
  match parse spec with Ok p -> p | Error m -> invalid_arg m

let trigger_to_string = function
  | Nth { first; count = 1 } -> string_of_int first
  | Nth { first; count } -> Printf.sprintf "%dx%d" first count
  | Prob p -> Printf.sprintf "~%g" p

let fault_to_string f =
  Printf.sprintf "%s@%s%s:%s%s" (kind_name f.kind) (site_name f.site)
    (match f.filter with None -> "" | Some s -> "/" ^ s)
    (trigger_to_string f.trigger)
    (match f.magnitude with None -> "" | Some m -> Printf.sprintf "=%g" m)

let to_string p =
  String.concat ","
    (Printf.sprintf "seed=%d" p.seed
    :: Array.to_list (Array.map fault_to_string p.faults))

(* ---------- process state ---------- *)

let plan_ref : plan option ref = ref None

(* Wall-clock skew accumulated by [slow] faults. Atomic because any
   worker domain may fire one while every domain reads the wrapped
   clock. Stored as an int64 bit pattern: Atomic over float boxes. *)
let skew_bits = Atomic.make 0L

let skew () = Int64.float_of_bits (Atomic.get skew_bits)

let add_skew dt =
  let rec go () =
    let old = Atomic.get skew_bits in
    let next = Int64.bits_of_float (Int64.float_of_bits old +. dt) in
    if not (Atomic.compare_and_set skew_bits old next) then go ()
  in
  go ()

let saved_clock : Telemetry.Clock.source option ref = ref None

(* Per-domain armed scope: occurrence counters for each fault in the
   installed plan. Counting per scope (= per sweep-job attempt) is what
   keeps Nth triggers deterministic under parallel sweeps — a global
   counter would fire on whichever domain got there first. *)
type scope = { key : string; counts : int array }

let scope_store : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Stage trackers are unconditional: failure reports want the active
   ladder stage even with no plan installed. *)
let stage_store : (string option * string option) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (None, None))

let set_stage s =
  let r = Domain.DLS.get stage_store in
  let _, last = !r in
  r := (s, (match s with Some _ -> s | None -> last))

let current_stage () = fst !(Domain.DLS.get stage_store)

let last_stage () = snd !(Domain.DLS.get stage_store)

let fresh_scope plan key = { key; counts = Array.make (Array.length plan.faults) 0 }

let with_scope ~key f =
  let stages = Domain.DLS.get stage_store in
  let prev_stages = !stages in
  stages := (None, None);
  let restore_scope =
    match !plan_ref with
    | None -> Fun.id
    | Some plan ->
        let r = Domain.DLS.get scope_store in
        let prev = !r in
        r := Some (fresh_scope plan key);
        fun () -> r := prev
  in
  Fun.protect
    ~finally:(fun () ->
      restore_scope ();
      stages := prev_stages)
    f

let active_scope plan =
  let r = Domain.DLS.get scope_store in
  match !r with
  | Some s when Array.length s.counts = Array.length plan.faults -> s
  | _ ->
      (* Standalone solve (no sweep arming a scope): an implicit root
         scope, so [rfss solve --fault-plan ...] works unadorned. *)
      let s = fresh_scope plan "" in
      r := Some s;
      s

(* ---------- install / uninstall ---------- *)

let uninstall () =
  plan_ref := None;
  Atomic.set skew_bits 0L;
  (match !saved_clock with
  | Some src ->
      saved_clock := None;
      Telemetry.Clock.install src
  | None -> ());
  Domain.DLS.get scope_store := None

let install plan =
  if !plan_ref <> None then uninstall ();
  (* Decorate the installed clock so [slow] faults age wall time for
     budgets and spans without burning CPU. Installed once, before any
     worker domain spawns, so workers read the wrapped source. *)
  let base = Telemetry.Clock.source () in
  saved_clock := Some base;
  Telemetry.Clock.install
    {
      base with
      Telemetry.Clock.wall = (fun () -> base.Telemetry.Clock.wall () +. skew ());
    };
  Atomic.set skew_bits 0L;
  plan_ref := Some plan

(* ---------- firing ---------- *)

let context_of scope =
  match current_stage () with
  | None -> scope.key ^ "/"
  | Some s -> scope.key ^ "/" ^ s

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0

(* Visit every fault of [plan] bound to [site] whose filter matches the
   current context, bump its occurrence counter, and call [k] for the
   ones whose trigger fires. *)
let consult plan site k =
  let scope = active_scope plan in
  let ctx = context_of scope in
  Array.iteri
    (fun i f ->
      if
        f.site = site
        && (match f.filter with None -> true | Some sub -> contains ~sub ctx)
      then begin
        let occ = scope.counts.(i) + 1 in
        scope.counts.(i) <- occ;
        let fires =
          match f.trigger with
          | Nth { first; count } -> occ >= first && occ < first + count
          | Prob p -> uniform ~seed:plan.seed ~salt:ctx (1000000 * i + occ) < p
        in
        if fires then begin
          Telemetry.count "faultinject.fired";
          Telemetry.count ("faultinject." ^ kind_name f.kind);
          k ~occ ~ctx f
        end
      end)
    plan.faults

(* Kinds every site honours: process-level effects. *)
let side_effects site ~occ ~ctx f =
  match f.kind with
  | Crash ->
      raise
        (Injected_crash { site = site_name site; occurrence = occ; context = ctx })
  | Kill ->
      (* Simulated power loss for chaos tests: no atexit handlers, no
         buffered output flush — only completed checkpoint renames
         survive, which is exactly the guarantee under test. *)
      Unix._exit 137
  | Slow -> add_skew (Option.value f.magnitude ~default:1.0)
  | _ -> ()

let corrupt_vector site v =
  match !plan_ref with
  | None -> ()
  | Some plan ->
      consult plan site (fun ~occ ~ctx f ->
          (match f.kind with
          | Nan -> if Array.length v > 0 then v.(0) <- Float.nan
          | Inf -> if Array.length v > 0 then v.(0) <- Float.infinity
          | _ -> ());
          side_effects site ~occ ~ctx f)

let jacobian_fault () =
  match !plan_ref with
  | None -> None
  | Some plan ->
      let hit = ref None in
      consult plan Jacobian (fun ~occ ~ctx f ->
          (match f.kind with
          | Singular -> hit := Some `Singular
          | Ill_conditioned ->
              hit := Some (`Scale (Option.value f.magnitude ~default:1e-10))
          | _ -> ());
          side_effects Jacobian ~occ ~ctx f);
      !hit

let gmres_stall () =
  match !plan_ref with
  | None -> false
  | Some plan ->
      let hit = ref false in
      consult plan Gmres (fun ~occ ~ctx f ->
          (match f.kind with Stall -> hit := true | _ -> ());
          side_effects Gmres ~occ ~ctx f);
      !hit

let fire_point site =
  match !plan_ref with
  | None -> ()
  | Some plan -> consult plan site (side_effects site)
