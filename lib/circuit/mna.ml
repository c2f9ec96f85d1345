type t = {
  netlist : Netlist.t;
  size : int;
  nodes : int;
  devices : Device.t array;  (* insertion order, fixed at build *)
  branch : int array;
      (* devices.(d)'s branch-current unknown, or -1 when it has none *)
  branches : (string * int) list;  (* device name -> unknown index *)
  gmin : float;
}

(* The device list and every branch index are resolved once here, so
   the per-evaluation loops below walk an array and read an int
   instead of rebuilding the list and searching it by name. *)
let build ?(gmin = 1e-12) netlist =
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
   and conductances into, a caller-owned buffer ({!Mosfet.evaluate_into},
   {!Bjt.evaluate_into}). This module is that caller, with one buffer
   per domain: an evaluation runs start to finish on one domain, so no
   two evaluations ever write one buffer at once, whoever shares the
   [t]. *)
let model_buffer =
  Domain.DLS.new_key (fun () -> Array.make (max Mosfet.buffer_size Bjt.buffer_size) 0.0)

let eval_f_into m x f =
  Array.fill f 0 m.size 0.0;
  let out = Domain.DLS.get model_buffer in
  (* gmin loading on node rows *)
  if m.gmin > 0.0 then
    for k = 0 to m.nodes - 1 do
      f.(k) <- f.(k) +. (m.gmin *. x.(k))
    done;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Resistor { n_plus; n_minus; resistance; _ } ->
        let i = (v_of x n_plus -. v_of x n_minus) /. resistance in
        add_node f n_plus i;
        add_node f n_minus (-.i)
    | Device.Capacitor _ -> ()
    | Device.Inductor { n_plus; n_minus; _ } ->
        let k = m.branch.(d) in
        let il = x.(k) in
        add_node f n_plus il;
        add_node f n_minus (-.il);
        add_row f k (v_of x n_plus -. v_of x n_minus)
    | Device.Voltage_source { n_plus; n_minus; _ } ->
        let k = m.branch.(d) in
        let i = x.(k) in
        add_node f n_plus i;
        add_node f n_minus (-.i);
        add_row f k (v_of x n_plus -. v_of x n_minus)
    | Device.Current_source _ -> ()
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        let i = Diode.current params v in
        add_node f anode i;
        add_node f cathode (-.i)
    | Device.Mosfet { drain; gate; source; params; _ } ->
        out.(Mosfet.vgs_slot) <- v_of x gate -. v_of x source;
        out.(Mosfet.vds_slot) <- v_of x drain -. v_of x source;
        Mosfet.evaluate_into params out;
        let ids = out.(Mosfet.ids_slot) in
        add_node f drain ids;
        add_node f source (-.ids)
    | Device.Bjt { collector; base; emitter; params; _ } ->
        out.(Bjt.vbe_slot) <- v_of x base -. v_of x emitter;
        out.(Bjt.vbc_slot) <- v_of x base -. v_of x collector;
        Bjt.evaluate_into params out;
        add_node f collector out.(Bjt.ic_slot);
        add_node f base out.(Bjt.ib_slot);
        add_node f emitter out.(Bjt.ie_slot)
    | Device.Vccs { out_plus; out_minus; in_plus; in_minus; gm; _ } ->
        let i = gm *. (v_of x in_plus -. v_of x in_minus) in
        add_node f out_plus i;
        add_node f out_minus (-.i)
    | Device.Multiplier { out_plus; out_minus; a_plus; a_minus; b_plus; b_minus; gain; _ }
      ->
        let va = v_of x a_plus -. v_of x a_minus in
        let vb = v_of x b_plus -. v_of x b_minus in
        let i = gain *. va *. vb in
        add_node f out_plus i;
        add_node f out_minus (-.i)
  done

let eval_q_into m x q =
  Array.fill q 0 m.size 0.0;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Capacitor { n_plus; n_minus; capacitance; _ } ->
        let charge = capacitance *. (v_of x n_plus -. v_of x n_minus) in
        add_node q n_plus charge;
        add_node q n_minus (-.charge)
    | Device.Inductor { inductance; _ } ->
        let k = m.branch.(d) in
        add_row q k (-.(inductance *. x.(k)))
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        let charge = Diode.charge params v in
        add_node q anode charge;
        add_node q cathode (-.charge)
    | Device.Mosfet { drain; gate; source; params; _ } ->
        let qgs = params.Mosfet.cgs *. (v_of x gate -. v_of x source) in
        let qgd = params.Mosfet.cgd *. (v_of x gate -. v_of x drain) in
        add_node q gate (qgs +. qgd);
        add_node q source (-.qgs);
        add_node q drain (-.qgd)
    | Device.Bjt { collector; base; emitter; params; _ } ->
        let qbe = params.Bjt.cbe *. (v_of x base -. v_of x emitter) in
        let qbc = params.Bjt.cbc *. (v_of x base -. v_of x collector) in
        add_node q base (qbe +. qbc);
        add_node q emitter (-.qbe);
        add_node q collector (-.qbc)
    | Device.Resistor _ | Device.Voltage_source _ | Device.Current_source _
    | Device.Vccs _ | Device.Multiplier _ ->
        ()
  done

(* Where a Jacobian stamp goes. Every device stamps the same positions
   in the same order at every iterate; only the values change. [Build]
   collects triplets for a fresh CSR ([Coo.add] skips exact zeros, so
   the built pattern can depend on the iterate). [Record] notes each
   position, zeros included: the stream. [Replay] adds stream entry k
   into value slot [slots.(k)] of a frozen pattern, or, where the
   pattern has no slot, notes drift unless the value is exactly 0. *)
type positions = { mutable len : int; mutable rows : int array; mutable cols : int array }

type replay = {
  mutable slots : int array;
  mutable values : float array;
  mutable pos : int;
  mutable fits : bool;
}

type sink = Build of Sparse.Coo.t | Record of positions | Replay of replay

let record ps i j =
  if ps.len = Array.length ps.rows then begin
    let grow a = Array.append a (Array.make (max 16 ps.len) 0) in
    ps.rows <- grow ps.rows;
    ps.cols <- grow ps.cols
  end;
  ps.rows.(ps.len) <- i;
  ps.cols.(ps.len) <- j;
  ps.len <- ps.len + 1

(* [i], [j] are 0-based unknown indices. *)
let[@inline] put sink i j value =
  match sink with
  | Replay r ->
      let k = r.pos in
      r.pos <- k + 1;
      let s = r.slots.(k) in
      if s >= 0 then r.values.(s) <- r.values.(s) +. value
      else if value <> 0.0 then r.fits <- false
  | Build coo -> Sparse.Coo.add coo i j value
  | Record ps -> record ps i j

(* Node-indexed stamp: ground rows and columns absorb it. *)
let[@inline] add_jac sink r c value = if r > 0 && c > 0 then put sink (r - 1) (c - 1) value

(* Stamp a two-terminal conductance/capacitance between nodes p and n. *)
let[@inline] stamp_pair sink p n value =
  add_jac sink p p value;
  add_jac sink p n (-.value);
  add_jac sink n p (-.value);
  add_jac sink n n value

(* BJT row [row] by the chain rule with vbe = vb − ve, vbc = vb − vc. *)
let[@inline] stamp_bjt_row g ~base ~emitter ~collector row d_vbe d_vbc =
  add_jac g row base (d_vbe +. d_vbc);
  add_jac g row emitter (-.d_vbe);
  add_jac g row collector (-.d_vbc)

let[@inline] stamp_multiplier_row g ~a_plus ~a_minus ~b_plus ~b_minus ~gain ~va ~vb sign
    row =
  add_jac g row a_plus (sign *. gain *. vb);
  add_jac g row a_minus (-.(sign *. gain *. vb));
  add_jac g row b_plus (sign *. gain *. va);
  add_jac g row b_minus (-.(sign *. gain *. va))

let stamp_jacobians m x g c =
  let out = Domain.DLS.get model_buffer in
  if m.gmin > 0.0 then
    for k = 0 to m.nodes - 1 do
      put g k k m.gmin
    done;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Resistor { n_plus; n_minus; resistance; _ } ->
        stamp_pair g n_plus n_minus (1.0 /. resistance)
    | Device.Capacitor { n_plus; n_minus; capacitance; _ } ->
        stamp_pair c n_plus n_minus capacitance
    | Device.Inductor { n_plus; n_minus; inductance; _ } ->
        let k = m.branch.(d) in
        (* KCL rows get ±i_l; branch row is v+ − v− with flux −L·i. *)
        if n_plus > 0 then put g (n_plus - 1) k 1.0;
        if n_minus > 0 then put g (n_minus - 1) k (-1.0);
        if n_plus > 0 then put g k (n_plus - 1) 1.0;
        if n_minus > 0 then put g k (n_minus - 1) (-1.0);
        put c k k (-.inductance)
    | Device.Voltage_source { n_plus; n_minus; _ } ->
        let k = m.branch.(d) in
        if n_plus > 0 then put g (n_plus - 1) k 1.0;
        if n_minus > 0 then put g (n_minus - 1) k (-1.0);
        if n_plus > 0 then put g k (n_plus - 1) 1.0;
        if n_minus > 0 then put g k (n_minus - 1) (-1.0)
    | Device.Current_source _ -> ()
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        stamp_pair g anode cathode (Diode.conductance params v);
        if params.Diode.junction_cap > 0.0 then
          stamp_pair c anode cathode params.Diode.junction_cap
    | Device.Mosfet { drain; gate; source; params; _ } ->
        out.(Mosfet.vgs_slot) <- v_of x gate -. v_of x source;
        out.(Mosfet.vds_slot) <- v_of x drain -. v_of x source;
        Mosfet.evaluate_into params out;
        let gm = out.(Mosfet.gm_slot) and gds = out.(Mosfet.gds_slot) in
        (* ids rows: +drain, −source; columns d, g, s. *)
        add_jac g drain drain gds;
        add_jac g drain gate gm;
        add_jac g drain source (-.(gm +. gds));
        add_jac g source drain (-.gds);
        add_jac g source gate (-.gm);
        add_jac g source source (gm +. gds);
        stamp_pair c gate source params.Mosfet.cgs;
        stamp_pair c gate drain params.Mosfet.cgd
    | Device.Bjt { collector; base; emitter; params; _ } ->
        out.(Bjt.vbe_slot) <- v_of x base -. v_of x emitter;
        out.(Bjt.vbc_slot) <- v_of x base -. v_of x collector;
        Bjt.evaluate_into params out;
        let ic_be = out.(Bjt.d_ic_d_vbe_slot) and ic_bc = out.(Bjt.d_ic_d_vbc_slot) in
        let ib_be = out.(Bjt.d_ib_d_vbe_slot) and ib_bc = out.(Bjt.d_ib_d_vbc_slot) in
        stamp_bjt_row g ~base ~emitter ~collector collector ic_be ic_bc;
        stamp_bjt_row g ~base ~emitter ~collector base ib_be ib_bc;
        stamp_bjt_row g ~base ~emitter ~collector emitter
          (-.(ic_be +. ib_be))
          (-.(ic_bc +. ib_bc));
        stamp_pair c base emitter params.Bjt.cbe;
        stamp_pair c base collector params.Bjt.cbc
    | Device.Vccs { out_plus; out_minus; in_plus; in_minus; gm; _ } ->
        add_jac g out_plus in_plus gm;
        add_jac g out_plus in_minus (-.gm);
        add_jac g out_minus in_plus (-.gm);
        add_jac g out_minus in_minus gm
    | Device.Multiplier { out_plus; out_minus; a_plus; a_minus; b_plus; b_minus; gain; _ }
      ->
        let va = v_of x a_plus -. v_of x a_minus in
        let vb = v_of x b_plus -. v_of x b_minus in
        stamp_multiplier_row g ~a_plus ~a_minus ~b_plus ~b_minus ~gain ~va ~vb 1.0 out_plus;
        stamp_multiplier_row g ~a_plus ~a_minus ~b_plus ~b_minus ~gain ~va ~vb (-1.0)
          out_minus
  done

let jacobians m x =
  let g_coo = Sparse.Coo.create ~capacity:(8 * m.size) m.size m.size in
  let c_coo = Sparse.Coo.create ~capacity:(4 * m.size) m.size m.size in
  stamp_jacobians m x (Build g_coo) (Build c_coo);
  (Sparse.Csr.of_coo g_coo, Sparse.Csr.of_coo c_coo)

(* One slot map per distinct pattern structure a refresher is handed.
   [key] is the [col_idx] array this structure was last seen with: a
   caller that keeps its pattern arrays (Assemble interns its per-point
   patterns) hits by physical equality, and a rebuilt but structurally
   equal pattern is found by comparison and becomes the new key. The
   list grows only with distinct structures, and a circuit has few: one
   per set of stamps that are exactly 0.0 at a rebuild. *)
type slot_map = { mutable key : int array; row_ptr : int array; slot_of : int array }

let rec by_key col_idx = function
  | [] -> raise Not_found
  | m :: rest -> if m.key == col_idx then m.slot_of else by_key col_idx rest

let slots_for maps (ps : positions) (a : Sparse.Csr.t) =
  let col_idx = a.Sparse.Csr.col_idx in
  try by_key col_idx !maps
  with Not_found -> (
    let same m = m.row_ptr = a.Sparse.Csr.row_ptr && m.key = col_idx in
    match List.find_opt same !maps with
    | Some m ->
        m.key <- col_idx;
        m.slot_of
    | None ->
        Telemetry.count "mna.slot_maps";
        let slot k =
          let i = ps.rows.(k) in
          if i >= a.Sparse.Csr.rows then -1 else Sparse.Csr.slot a i ps.cols.(k)
        in
        let slot_of = Array.init ps.len slot in
        maps := { key = col_idx; row_ptr = a.Sparse.Csr.row_ptr; slot_of } :: !maps;
        slot_of)

(* Numeric-refresh path for the symbolic/numeric assembly split. The
   first call records the stamp stream; each distinct G/C pattern then
   gets one map from stream position to value slot. A refresh replays
   the stream into those slots in stream order — the order [of_coo]
   sums duplicates in — so refreshed values are bitwise equal to a
   rebuild (adding an exact zero never changes a running sum that
   starts at +0). A nonzero stamp with no slot (a stamp that was
   exactly 0.0 when the pattern was built) is drift: [false], and the
   caller rebuilds. *)
let jacobian_refresher m () =
  let g_stream = { len = 0; rows = [||]; cols = [||] } in
  let c_stream = { len = 0; rows = [||]; cols = [||] } in
  let recorded = ref false in
  let g_maps = ref [] and c_maps = ref [] in
  let g_replay = { slots = [||]; values = [||]; pos = 0; fits = true } in
  let c_replay = { slots = [||]; values = [||]; pos = 0; fits = true } in
  let g_sink = Replay g_replay and c_sink = Replay c_replay in
  let arm r slots (a : Sparse.Csr.t) =
    r.slots <- slots;
    r.values <- a.Sparse.Csr.values;
    r.pos <- 0;
    r.fits <- true;
    Array.fill a.Sparse.Csr.values 0 (Array.length a.Sparse.Csr.values) 0.0
  in
  fun x ~g ~c ->
    if not !recorded then begin
      stamp_jacobians m x (Record g_stream) (Record c_stream);
      recorded := true
    end;
    arm g_replay (slots_for g_maps g_stream g) g;
    arm c_replay (slots_for c_maps c_stream c) c;
    stamp_jacobians m x g_sink c_sink;
    g_replay.fits && c_replay.fits

let source_with m ~phase_of =
  let b = Array.make m.size 0.0 in
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Voltage_source { waveform; _ } ->
        let k = m.branch.(d) in
        add_row b k (Waveform.eval_with ~phase_of waveform)
    | Device.Current_source { n_plus; n_minus; waveform; _ } ->
        (* Current flows n_plus → n_minus through the source, so it
           leaves the circuit at n_plus: b(n+) = −I, b(n−) = +I. *)
        let i = Waveform.eval_with ~phase_of waveform in
        add_node b n_plus (-.i);
        add_node b n_minus i
    | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _ | Device.Diode _
    | Device.Mosfet _ | Device.Bjt _ | Device.Vccs _ | Device.Multiplier _ ->
        ()
  done;
  b

(* One float per domain that a source's value passes through, as the
   device models' values pass through [model_buffer]. *)
let source_value = Domain.DLS.new_key (fun () -> Array.make 1 0.0)

(* [source_with] at the one-time phases [freq *. t], into [b], through
   {!Waveform.eval_into}: the per-step source of the integrators
   allocates nothing. *)
let source_into m t b =
  let v = Domain.DLS.get source_value in
  Array.fill b 0 m.size 0.0;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Voltage_source { waveform; _ } ->
        Waveform.eval_into waveform t v 0;
        add_row b m.branch.(d) v.(0)
    | Device.Current_source { n_plus; n_minus; waveform; _ } ->
        Waveform.eval_into waveform t v 0;
        add_node b n_plus (-.v.(0));
        add_node b n_minus v.(0)
    | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _ | Device.Diode _
    | Device.Mosfet _ | Device.Bjt _ | Device.Vccs _ | Device.Multiplier _ ->
        ()
  done

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
    eval_f_into = eval_f_into m;
    eval_q_into = eval_q_into m;
    source_into = source_into m;
    jacobians = jacobians m;
    jacobian_refresher = jacobian_refresher m;
  }
