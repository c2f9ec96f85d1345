(* A recorded stamp stream (see [sink] below): stamp k goes to row
   [rows.(k)], column [cols.(k)]; it is variable when [var.(k) >= 0],
   its index among the [vars] variable stamps, and a constant of value
   [value.(k)] otherwise. *)
type stream = {
  mutable len : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable var : int array;
  mutable value : float array;
  mutable vars : int;
}

type t = {
  netlist : Netlist.t;
  size : int;
  nodes : int;
  devices : Device.t array;  (* insertion order, fixed at build *)
  branch : int array;
      (* devices.(d)'s branch-current unknown, or -1 when it has none *)
  branches : (string * int) list;  (* device name -> unknown index *)
  gmin : float;
  g_stream : stream;  (* G's and C's stamp streams, recorded at build *)
  c_stream : stream;
}

let new_stream () = { len = 0; rows = [||]; cols = [||]; var = [||]; value = [||]; vars = 0 }

(* The device list and every branch index are resolved once here, so
   the per-evaluation loops below walk an array and read an int
   instead of rebuilding the list and searching it by name. *)
let make ?(gmin = 1e-12) netlist =
  let nodes = Netlist.num_nodes netlist in
  let devices = Array.of_list (Netlist.devices netlist) in
  let branch = Array.make (Array.length devices) (-1) in
  let next = ref nodes in
  let branches = ref [] in
  Array.iteri
    (fun i d ->
      if Device.needs_branch_current d then begin
        branch.(i) <- !next;
        branches := (Device.name d, !next) :: !branches;
        incr next
      end)
    devices;
  {
    netlist;
    size = !next;
    nodes;
    devices;
    branch;
    branches = List.rev !branches;
    gmin;
    g_stream = new_stream ();
    c_stream = new_stream ();
  }

let size m = m.size
let num_nodes m = m.nodes
let netlist m = m.netlist

let branch_index m name = List.assoc name m.branches

let node_index m s =
  match Netlist.find_node m.netlist s with
  | Some 0 | None -> raise Not_found
  | Some k -> k - 1

let unknown_names m =
  Array.init m.size (fun i ->
      if i < m.nodes then Netlist.node_name m.netlist (i + 1)
      else begin
        let name, _ =
          List.find (fun (_, k) -> k = i) m.branches
        in
        Printf.sprintf "i(%s)" name
      end)

let voltage m x s =
  match Netlist.find_node m.netlist s with
  | Some 0 -> 0.0
  | Some k -> x.(k - 1)
  | None -> invalid_arg (Printf.sprintf "Mna.voltage: unknown node %S" s)

let differential_voltage m x a b = voltage m x a -. voltage m x b

(* Node k's voltage lives at index k-1; ground contributes 0 and absorbs
   stamps silently. *)
let[@inline] v_of x n = if n = 0 then 0.0 else x.(n - 1)
let[@inline] add_node vec n value = if n > 0 then vec.(n - 1) <- vec.(n - 1) +. value

(* Stamp helpers for branch rows (already 0-based absolute indices). *)
let[@inline] add_row vec r value = vec.(r) <- vec.(r) +. value

(* The device models read their voltages from, and write their currents
   and conductances into, a caller-owned buffer ({!Diode.evaluate_into},
   {!Mosfet.evaluate_into}, {!Bjt.evaluate_into}). This module is that
   caller, with one buffer per domain: an evaluation runs start to
   finish on one domain, so no two evaluations ever write one buffer at
   once, whoever shares the [t]. *)
let model_buffer =
  Domain.DLS.new_key (fun () ->
      Array.make (max Diode.buffer_size (max Mosfet.buffer_size Bjt.buffer_size)) 0.0)

(* Where a Jacobian stamp goes. Every device stamps the same positions
   in the same order at every iterate; only the values of its
   variable stamps change (a nonlinear model's conductances). The
   constant stamps are C's (every charge model here is linear), the
   linear devices' and gmin. [Build] collects triplets for a fresh CSR
   ([Coo.add] skips exact zeros, so the built pattern can depend on
   the iterate). [Record] notes each position, zeros included, with a
   constant's value: the stream. [Load] keeps only the variable
   values, in stream order; the walk skips the constant stamps. *)
type vars = { mutable vals : float array; mutable pos : int }

type sink = Build of Sparse.Coo.t | Record of stream | Load of vars

let grow s =
  let grow a fill =
    let b = Array.make (max 16 (2 * s.len)) fill in
    Array.blit a 0 b 0 s.len;
    b
  in
  s.rows <- grow s.rows 0;
  s.cols <- grow s.cols 0;
  s.var <- grow s.var 0;
  s.value <- grow s.value 0.0

(* Inlined, so that [value] is never boxed. *)
let[@inline] record s i j ~variable value =
  if s.len = Array.length s.rows then grow s;
  s.rows.(s.len) <- i;
  s.cols.(s.len) <- j;
  s.value.(s.len) <- value;
  if variable then begin
    s.var.(s.len) <- s.vars;
    s.vars <- s.vars + 1
  end
  else s.var.(s.len) <- -1;
  s.len <- s.len + 1

(* [i], [j] are 0-based unknown indices. *)
let[@inline] put_var sink i j value =
  match sink with
  | Load l ->
      l.vals.(l.pos) <- value;
      l.pos <- l.pos + 1
  | Build coo -> Sparse.Coo.add coo i j value
  | Record s -> record s i j ~variable:true value

let[@inline] put_const sink i j value =
  match sink with
  | Load _ -> ()
  | Build coo -> Sparse.Coo.add coo i j value
  | Record s -> record s i j ~variable:false value

(* Node-indexed stamps: ground rows and columns absorb them. *)
let[@inline] var sink r c value = if r > 0 && c > 0 then put_var sink (r - 1) (c - 1) value
let[@inline] const sink r c value = if r > 0 && c > 0 then put_const sink (r - 1) (c - 1) value

(* A two-terminal conductance/capacitance between nodes p and n. *)
let[@inline] var_pair sink p n value =
  var sink p p value;
  var sink p n (-.value);
  var sink n p (-.value);
  var sink n n value

let[@inline] const_pair sink p n value =
  const sink p p value;
  const sink p n (-.value);
  const sink n p (-.value);
  const sink n n value

(* BJT row [row] by the chain rule with vbe = vb − ve, vbc = vb − vc. *)
let[@inline] stamp_bjt_row g ~base ~emitter ~collector row d_vbe d_vbc =
  var g row base (d_vbe +. d_vbc);
  var g row emitter (-.d_vbe);
  var g row collector (-.d_vbc)

let[@inline] stamp_multiplier_row g ~a_plus ~a_minus ~b_plus ~b_minus ~gain ~va ~vb sign
    row =
  var g row a_plus (sign *. gain *. vb);
  var g row a_minus (-.(sign *. gain *. vb));
  var g row b_plus (sign *. gain *. va);
  var g row b_minus (-.(sign *. gain *. va))

(* A branch current k between nodes p and n: ±i_k in the KCL rows and
   v_p − v_n in row k. *)
let[@inline] stamp_branch g ~n_plus ~n_minus k =
  if n_plus > 0 then put_const g (n_plus - 1) k 1.0;
  if n_minus > 0 then put_const g (n_minus - 1) k (-1.0);
  if n_plus > 0 then put_const g k (n_plus - 1) 1.0;
  if n_minus > 0 then put_const g k (n_minus - 1) (-1.0)

(* The one device walk: q and f at [x] into [q] and [f], G's stamps into
   [g] and C's into [c]. The constant stamps are emitted only when
   [consts]; the variable ones always, in the same order, so a [Load]
   walk's k-th value is the recorded stream's k-th variable stamp.
   f and q take their terms in the order of the stamps, gmin first. *)
let walk m x ~q ~f ~consts g c =
  for k = 0 to m.size - 1 do
    f.(k) <- 0.0;
    q.(k) <- 0.0
  done;
  let out = Domain.DLS.get model_buffer in
  (* gmin loading on node rows *)
  if m.gmin > 0.0 then
    for k = 0 to m.nodes - 1 do
      f.(k) <- f.(k) +. (m.gmin *. x.(k));
      if consts then put_const g k k m.gmin
    done;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Resistor { n_plus; n_minus; resistance; _ } ->
        let i = (v_of x n_plus -. v_of x n_minus) /. resistance in
        add_node f n_plus i;
        add_node f n_minus (-.i);
        if consts then const_pair g n_plus n_minus (1.0 /. resistance)
    | Device.Capacitor { n_plus; n_minus; capacitance; _ } ->
        let charge = capacitance *. (v_of x n_plus -. v_of x n_minus) in
        add_node q n_plus charge;
        add_node q n_minus (-.charge);
        if consts then const_pair c n_plus n_minus capacitance
    | Device.Inductor { n_plus; n_minus; inductance; _ } ->
        let k = m.branch.(d) in
        let il = x.(k) in
        add_node f n_plus il;
        add_node f n_minus (-.il);
        add_row f k (v_of x n_plus -. v_of x n_minus);
        add_row q k (-.(inductance *. il));
        (* KCL rows get ±i_l; branch row is v+ − v− with flux −L·i. *)
        if consts then begin
          stamp_branch g ~n_plus ~n_minus k;
          put_const c k k (-.inductance)
        end
    | Device.Voltage_source { n_plus; n_minus; _ } ->
        let k = m.branch.(d) in
        let i = x.(k) in
        add_node f n_plus i;
        add_node f n_minus (-.i);
        add_row f k (v_of x n_plus -. v_of x n_minus);
        if consts then stamp_branch g ~n_plus ~n_minus k
    | Device.Current_source _ -> ()
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        out.(Diode.v_slot) <- v;
        Diode.evaluate_into params out;
        let i = out.(Diode.current_slot) in
        add_node f anode i;
        add_node f cathode (-.i);
        let charge = out.(Diode.charge_slot) in
        add_node q anode charge;
        add_node q cathode (-.charge);
        var_pair g anode cathode out.(Diode.conductance_slot);
        if consts && params.Diode.junction_cap > 0.0 then
          const_pair c anode cathode params.Diode.junction_cap
    | Device.Mosfet { drain; gate; source; params; _ } ->
        out.(Mosfet.vgs_slot) <- v_of x gate -. v_of x source;
        out.(Mosfet.vds_slot) <- v_of x drain -. v_of x source;
        Mosfet.evaluate_into params out;
        let ids = out.(Mosfet.ids_slot) in
        add_node f drain ids;
        add_node f source (-.ids);
        let qgs = params.Mosfet.cgs *. (v_of x gate -. v_of x source) in
        let qgd = params.Mosfet.cgd *. (v_of x gate -. v_of x drain) in
        add_node q gate (qgs +. qgd);
        add_node q source (-.qgs);
        add_node q drain (-.qgd);
        let gm = out.(Mosfet.gm_slot) and gds = out.(Mosfet.gds_slot) in
        (* ids rows: +drain, −source; columns d, g, s. *)
        var g drain drain gds;
        var g drain gate gm;
        var g drain source (-.(gm +. gds));
        var g source drain (-.gds);
        var g source gate (-.gm);
        var g source source (gm +. gds);
        if consts then begin
          const_pair c gate source params.Mosfet.cgs;
          const_pair c gate drain params.Mosfet.cgd
        end
    | Device.Bjt { collector; base; emitter; params; _ } ->
        out.(Bjt.vbe_slot) <- v_of x base -. v_of x emitter;
        out.(Bjt.vbc_slot) <- v_of x base -. v_of x collector;
        Bjt.evaluate_into params out;
        add_node f collector out.(Bjt.ic_slot);
        add_node f base out.(Bjt.ib_slot);
        add_node f emitter out.(Bjt.ie_slot);
        let qbe = params.Bjt.cbe *. (v_of x base -. v_of x emitter) in
        let qbc = params.Bjt.cbc *. (v_of x base -. v_of x collector) in
        add_node q base (qbe +. qbc);
        add_node q emitter (-.qbe);
        add_node q collector (-.qbc);
        let ic_be = out.(Bjt.d_ic_d_vbe_slot) and ic_bc = out.(Bjt.d_ic_d_vbc_slot) in
        let ib_be = out.(Bjt.d_ib_d_vbe_slot) and ib_bc = out.(Bjt.d_ib_d_vbc_slot) in
        stamp_bjt_row g ~base ~emitter ~collector collector ic_be ic_bc;
        stamp_bjt_row g ~base ~emitter ~collector base ib_be ib_bc;
        stamp_bjt_row g ~base ~emitter ~collector emitter
          (-.(ic_be +. ib_be))
          (-.(ic_bc +. ib_bc));
        if consts then begin
          const_pair c base emitter params.Bjt.cbe;
          const_pair c base collector params.Bjt.cbc
        end
    | Device.Vccs { out_plus; out_minus; in_plus; in_minus; gm; _ } ->
        let i = gm *. (v_of x in_plus -. v_of x in_minus) in
        add_node f out_plus i;
        add_node f out_minus (-.i);
        if consts then begin
          const g out_plus in_plus gm;
          const g out_plus in_minus (-.gm);
          const g out_minus in_plus (-.gm);
          const g out_minus in_minus gm
        end
    | Device.Multiplier { out_plus; out_minus; a_plus; a_minus; b_plus; b_minus; gain; _ }
      ->
        let va = v_of x a_plus -. v_of x a_minus in
        let vb = v_of x b_plus -. v_of x b_minus in
        let i = gain *. va *. vb in
        add_node f out_plus i;
        add_node f out_minus (-.i);
        stamp_multiplier_row g ~a_plus ~a_minus ~b_plus ~b_minus ~gain ~va ~vb 1.0 out_plus;
        stamp_multiplier_row g ~a_plus ~a_minus ~b_plus ~b_minus ~gain ~va ~vb (-1.0)
          out_minus
  done

(* The recorded streams bound the triplet counts. *)
let jacobians m x =
  let g_coo = Sparse.Coo.create ~capacity:m.g_stream.len m.size m.size in
  let c_coo = Sparse.Coo.create ~capacity:m.c_stream.len m.size m.size in
  let scratch = Array.make m.size 0.0 in
  walk m x ~q:scratch ~f:scratch ~consts:true (Build g_coo) (Build c_coo);
  (Sparse.Csr.of_coo g_coo, Sparse.Csr.of_coo c_coo)

(* A stream compiled against one pattern. Each slot's run of constant
   stamps before its first variable stamp is summed, from 0.0 and in
   stream order, into [base]; the rest of the stream — every variable
   stamp and each constant that follows a variable stamp in its slot —
   is replayed in stream order: entry e adds [vals.(src.(e))] (or
   [const.(e)] where [src.(e) < 0]) into value slot [slot.(e)], or,
   where the pattern has no slot, is drift unless exactly 0. Each slot
   so takes the additions a rebuild sums, in the order [of_coo] sums
   them, from the same start: the values are a rebuild's bit for bit.
   [fits] is false when a constant that is not exactly 0 has no slot.
   [key] is the [col_idx] array this structure was last seen with: a
   caller that keeps its pattern arrays (Assemble interns its per-point
   patterns) hits by physical equality, and a rebuilt but structurally
   equal pattern is found by comparison and becomes the new key. The
   list of programs grows only with distinct structures, and a circuit
   has few: one per set of stamps that are exactly 0.0 at a rebuild. *)
type program = {
  mutable key : int array;
  row_ptr : int array;
  base : float array;
  slot : int array;
  src : int array;
  const : float array;
  fits : bool;
  vars : int;
}

let compile (s : stream) (a : Sparse.Csr.t) =
  let nnz = Array.length a.Sparse.Csr.values in
  let base = Array.make nnz 0.0 and varied = Bytes.make nnz '0' in
  let slot_of k =
    let i = s.rows.(k) in
    if i >= a.Sparse.Csr.rows then -1 else Sparse.Csr.slot a i s.cols.(k)
  in
  (* Pass 1 folds each slot's leading constants into [base] and counts
     the replayed stamps; pass 2 lists them, the same ones in the same
     order: a slot is marked varied at its first variable stamp. *)
  let fits = ref true and count = ref 0 in
  for k = 0 to s.len - 1 do
    let sl = slot_of k in
    if s.var.(k) >= 0 then begin
      if sl >= 0 then Bytes.set varied sl '1';
      incr count
    end
    else if sl < 0 then (if s.value.(k) <> 0.0 then fits := false)
    else if Bytes.get varied sl = '1' then incr count
    else base.(sl) <- base.(sl) +. s.value.(k)
  done;
  let slot = Array.make !count 0 and src = Array.make !count 0 in
  let const = Array.make !count 0.0 in
  Bytes.fill varied 0 nnz '0';
  let e = ref 0 in
  for k = 0 to s.len - 1 do
    let sl = slot_of k in
    let var = s.var.(k) in
    if var >= 0 || (sl >= 0 && Bytes.get varied sl = '1') then begin
      if var >= 0 && sl >= 0 then Bytes.set varied sl '1';
      slot.(!e) <- sl;
      src.(!e) <- var;
      if var < 0 then const.(!e) <- s.value.(k);
      incr e
    end
  done;
  {
    key = a.Sparse.Csr.col_idx;
    row_ptr = a.Sparse.Csr.row_ptr;
    base;
    slot;
    src;
    const;
    fits = !fits;
    vars = s.vars;
  }

let rec by_key col_idx = function
  | [] -> raise Not_found
  | p :: rest -> if p.key == col_idx then p else by_key col_idx rest

let program_for programs stream (a : Sparse.Csr.t) =
  let col_idx = a.Sparse.Csr.col_idx in
  try by_key col_idx !programs
  with Not_found -> (
    let same p = p.row_ptr = a.Sparse.Csr.row_ptr && p.key = col_idx in
    match List.find_opt same !programs with
    | Some p ->
        p.key <- col_idx;
        p
    | None ->
        Telemetry.count "mna.slot_maps";
        let p = compile stream a in
        programs := p :: !programs;
        p)

(* The values of [a] from [p]: the base, then the replayed entries.
   Plain loops: these arrays are short, and [Array.blit] costs a C
   call. The indices are checked once here: [compile] made every slot
   less than [base]'s length and every source less than the stream's
   variable count, which is [vals]'s length. *)
let replay p (vals : float array) (a : Sparse.Csr.t) =
  let values = a.Sparse.Csr.values and base = p.base in
  if Array.length values <> Array.length base || Array.length vals <> p.vars then
    invalid_arg "Mna.load: pattern mismatch";
  for s = 0 to Array.length base - 1 do
    Array.unsafe_set values s (Array.unsafe_get base s)
  done;
  let fits = ref p.fits in
  let slot = p.slot and src = p.src and const = p.const in
  for e = 0 to Array.length slot - 1 do
    let k = Array.unsafe_get src e in
    let v = if k >= 0 then Array.unsafe_get vals k else Array.unsafe_get const e in
    let s = Array.unsafe_get slot e in
    if s >= 0 then Array.unsafe_set values s (Array.unsafe_get values s +. v)
    else if v <> 0.0 then fits := false
  done;
  !fits

(* The stamp stream depends on the circuit alone — the positions, which
   stamps are variable, the constants' values — so it is recorded once,
   here, at the zero state; it is never written again, and loads on
   every domain read it. *)
let build ?gmin netlist =
  let m = make ?gmin netlist in
  (* q and f are not kept: one scratch vector takes both. *)
  let scratch = Array.make m.size 0.0 in
  walk m (Array.make m.size 0.0) ~q:scratch ~f:scratch ~consts:true (Record m.g_stream)
    (Record m.c_stream);
  m

(* The one-pass load. Each distinct G/C pattern gets one compiled
   program of the circuit's streams. A load walks the devices once —
   q, f and the variable stamps' values — and writes G and C from
   their programs. A nonzero stamp with no slot (a stamp that was
   exactly 0.0 when the pattern was built) is drift: [false], and the
   caller rebuilds. *)
let load m () =
  let g_programs = ref [] and c_programs = ref [] in
  let g_vars = { vals = Array.make m.g_stream.vars 0.0; pos = 0 } in
  let c_vars = { vals = Array.make m.c_stream.vars 0.0; pos = 0 } in
  let g_sink = Load g_vars and c_sink = Load c_vars in
  fun x ~q ~f ~g ~c ->
    let gp = program_for g_programs m.g_stream g and cp = program_for c_programs m.c_stream c in
    g_vars.pos <- 0;
    c_vars.pos <- 0;
    walk m x ~q ~f ~consts:false g_sink c_sink;
    let g_fits = replay gp g_vars.vals g in
    replay cp c_vars.vals c && g_fits

(* One float per domain that a source's value passes through, as the
   device models' values pass through [model_buffer]. *)
let source_value = Domain.DLS.new_key (fun () -> Array.make 1 0.0)

(* b into [out] at [off], each waveform factor at the one-time phase
   [freq *. t] or, with [~listed], at its listed phase, through the
   domain's value slot. Inlined into both callers, so [t] is never
   boxed. *)
let[@inline] add_sources m ~listed ~freqs ~phases t out off =
  let v = Domain.DLS.get source_value in
  Array.fill out off m.size 0.0;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Voltage_source { waveform; _ } ->
        if listed then Waveform.eval_phases_into waveform ~freqs ~phases v 0
        else Waveform.eval_into waveform t v 0;
        add_row out (off + m.branch.(d)) v.(0)
    | Device.Current_source { n_plus; n_minus; waveform; _ } ->
        if listed then Waveform.eval_phases_into waveform ~freqs ~phases v 0
        else Waveform.eval_into waveform t v 0;
        if n_plus > 0 then add_row out (off + n_plus - 1) (-.v.(0));
        if n_minus > 0 then add_row out (off + n_minus - 1) v.(0)
    | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _ | Device.Diode _
    | Device.Mosfet _ | Device.Bjt _ | Device.Vccs _ | Device.Multiplier _ ->
        ()
  done

(* The per-step source of the integrators; it allocates nothing. *)
let source_into m t b = add_sources m ~listed:false ~freqs:[||] ~phases:[||] t b 0

let sources_into m ~freqs ~phases out off =
  add_sources m ~listed:true ~freqs ~phases 0.0 out off

let linear m =
  Array.for_all
    (function
      | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _ | Device.Voltage_source _
      | Device.Current_source _ | Device.Vccs _ ->
          true
      | Device.Diode _ | Device.Mosfet _ | Device.Bjt _ | Device.Multiplier _ -> false)
    m.devices

let source_frequencies m =
  let add acc f = if List.mem f acc then acc else f :: acc in
  Array.fold_left
    (fun acc d ->
      match d with
      | Device.Voltage_source { waveform; _ } | Device.Current_source { waveform; _ } ->
          List.fold_left add acc (Waveform.frequencies waveform)
      | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _ | Device.Diode _
      | Device.Mosfet _ | Device.Bjt _ | Device.Vccs _ | Device.Multiplier _ ->
          acc)
    [] m.devices

let dae m =
  {
    Numeric.Dae.size = m.size;
    source_into = source_into m;
    jacobians = jacobians m;
    load = load m;
  }
