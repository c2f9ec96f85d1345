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
let v_of x n = if n = 0 then 0.0 else x.(n - 1)
let add_node vec n value = if n > 0 then vec.(n - 1) <- vec.(n - 1) +. value

let add_jac coo r c value =
  if r > 0 && c > 0 then Sparse.Coo.add coo (r - 1) (c - 1) value

(* Stamp helpers for branch rows (already 0-based absolute indices). *)
let add_row vec r value = vec.(r) <- vec.(r) +. value

let eval_f_into m x f =
  Array.fill f 0 m.size 0.0;
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
        let vgs = v_of x gate -. v_of x source in
        let vds = v_of x drain -. v_of x source in
        let op = Mosfet.evaluate params ~vgs ~vds in
        add_node f drain op.Mosfet.ids;
        add_node f source (-.op.Mosfet.ids)
    | Device.Bjt { collector; base; emitter; params; _ } ->
        let vbe = v_of x base -. v_of x emitter in
        let vbc = v_of x base -. v_of x collector in
        let op = Bjt.evaluate params ~vbe ~vbc in
        add_node f collector op.Bjt.ic;
        add_node f base op.Bjt.ib;
        add_node f emitter op.Bjt.ie
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

let eval_f m x =
  let f = Array.make m.size 0.0 in
  eval_f_into m x f;
  f

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

let eval_q m x =
  let q = Array.make m.size 0.0 in
  eval_q_into m x q;
  q

(* Stamp a two-terminal conductance/capacitance between nodes p and n. *)
let stamp_pair coo p n value =
  add_jac coo p p value;
  add_jac coo p n (-.value);
  add_jac coo n p (-.value);
  add_jac coo n n value

let stamp_jacobians m x g_coo c_coo =
  if m.gmin > 0.0 then
    for k = 0 to m.nodes - 1 do
      Sparse.Coo.add g_coo k k m.gmin
    done;
  for d = 0 to Array.length m.devices - 1 do
    match m.devices.(d) with
    | Device.Resistor { n_plus; n_minus; resistance; _ } ->
        stamp_pair g_coo n_plus n_minus (1.0 /. resistance)
    | Device.Capacitor { n_plus; n_minus; capacitance; _ } ->
        stamp_pair c_coo n_plus n_minus capacitance
    | Device.Inductor { n_plus; n_minus; inductance; _ } ->
        let k = m.branch.(d) in
        (* KCL rows get ±i_l; branch row is v+ − v− with flux −L·i. *)
        if n_plus > 0 then Sparse.Coo.add g_coo (n_plus - 1) k 1.0;
        if n_minus > 0 then Sparse.Coo.add g_coo (n_minus - 1) k (-1.0);
        if n_plus > 0 then Sparse.Coo.add g_coo k (n_plus - 1) 1.0;
        if n_minus > 0 then Sparse.Coo.add g_coo k (n_minus - 1) (-1.0);
        Sparse.Coo.add c_coo k k (-.inductance)
    | Device.Voltage_source { n_plus; n_minus; _ } ->
        let k = m.branch.(d) in
        if n_plus > 0 then Sparse.Coo.add g_coo (n_plus - 1) k 1.0;
        if n_minus > 0 then Sparse.Coo.add g_coo (n_minus - 1) k (-1.0);
        if n_plus > 0 then Sparse.Coo.add g_coo k (n_plus - 1) 1.0;
        if n_minus > 0 then Sparse.Coo.add g_coo k (n_minus - 1) (-1.0)
    | Device.Current_source _ -> ()
    | Device.Diode { anode; cathode; params; _ } ->
        let v = v_of x anode -. v_of x cathode in
        stamp_pair g_coo anode cathode (Diode.conductance params v);
        if params.Diode.junction_cap > 0.0 then
          stamp_pair c_coo anode cathode params.Diode.junction_cap
    | Device.Mosfet { drain; gate; source; params; _ } ->
        let vgs = v_of x gate -. v_of x source in
        let vds = v_of x drain -. v_of x source in
        let op = Mosfet.evaluate params ~vgs ~vds in
        let gm = op.Mosfet.gm and gds = op.Mosfet.gds in
        (* ids rows: +drain, −source; columns d, g, s. *)
        add_jac g_coo drain drain gds;
        add_jac g_coo drain gate gm;
        add_jac g_coo drain source (-.(gm +. gds));
        add_jac g_coo source drain (-.gds);
        add_jac g_coo source gate (-.gm);
        add_jac g_coo source source (gm +. gds);
        stamp_pair c_coo gate source params.Mosfet.cgs;
        stamp_pair c_coo gate drain params.Mosfet.cgd
    | Device.Bjt { collector; base; emitter; params; _ } ->
        let vbe = v_of x base -. v_of x emitter in
        let vbc = v_of x base -. v_of x collector in
        let op = Bjt.evaluate params ~vbe ~vbc in
        (* Row-wise chain rule with vbe = vb − ve, vbc = vb − vc. *)
        let stamp_row row d_vbe d_vbc =
          add_jac g_coo row base (d_vbe +. d_vbc);
          add_jac g_coo row emitter (-.d_vbe);
          add_jac g_coo row collector (-.d_vbc)
        in
        stamp_row collector op.Bjt.d_ic_d_vbe op.Bjt.d_ic_d_vbc;
        stamp_row base op.Bjt.d_ib_d_vbe op.Bjt.d_ib_d_vbc;
        stamp_row emitter
          (-.(op.Bjt.d_ic_d_vbe +. op.Bjt.d_ib_d_vbe))
          (-.(op.Bjt.d_ic_d_vbc +. op.Bjt.d_ib_d_vbc));
        stamp_pair c_coo base emitter params.Bjt.cbe;
        stamp_pair c_coo base collector params.Bjt.cbc
    | Device.Vccs { out_plus; out_minus; in_plus; in_minus; gm; _ } ->
        add_jac g_coo out_plus in_plus gm;
        add_jac g_coo out_plus in_minus (-.gm);
        add_jac g_coo out_minus in_plus (-.gm);
        add_jac g_coo out_minus in_minus gm
    | Device.Multiplier { out_plus; out_minus; a_plus; a_minus; b_plus; b_minus; gain; _ }
      ->
        let va = v_of x a_plus -. v_of x a_minus in
        let vb = v_of x b_plus -. v_of x b_minus in
        let stamp_row sign row =
          add_jac g_coo row a_plus (sign *. gain *. vb);
          add_jac g_coo row a_minus (-.(sign *. gain *. vb));
          add_jac g_coo row b_plus (sign *. gain *. va);
          add_jac g_coo row b_minus (-.(sign *. gain *. va))
        in
        stamp_row 1.0 out_plus;
        stamp_row (-1.0) out_minus
  done

let jacobians m x =
  let g_coo = Sparse.Coo.create ~capacity:(8 * m.size) m.size m.size in
  let c_coo = Sparse.Coo.create ~capacity:(4 * m.size) m.size m.size in
  stamp_jacobians m x g_coo c_coo;
  (Sparse.Csr.of_coo g_coo, Sparse.Csr.of_coo c_coo)

(* Numeric-refresh path for the symbolic/numeric assembly split: one
   pair of COO builders is kept per refresher and re-stamped into the
   frozen CSR patterns. The stamp stream order is identical to
   [jacobians]'s, so refreshed values are bitwise equal to a rebuild.
   Pattern drift (a device stamp that is exactly 0.0 at one iterate is
   skipped by [Coo.add]) is reported as [false] for the caller to
   rebuild from scratch. *)
let jacobian_refresher m () =
  let g_coo = Sparse.Coo.create ~capacity:(8 * m.size) m.size m.size in
  let c_coo = Sparse.Coo.create ~capacity:(4 * m.size) m.size m.size in
  fun x ~g ~c ->
    Sparse.Coo.clear g_coo;
    Sparse.Coo.clear c_coo;
    stamp_jacobians m x g_coo c_coo;
    let ok_g = Sparse.Csr.refresh_from_coo g g_coo in
    let ok_c = Sparse.Csr.refresh_from_coo c c_coo in
    ok_g && ok_c

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
    eval_f = eval_f m;
    eval_q = eval_q m;
    jacobians = jacobians m;
    source = (fun t -> source_with m ~phase_of:(fun freq -> freq *. t));
    fast =
      Some
        {
          Numeric.Dae.eval_f_into = eval_f_into m;
          eval_q_into = eval_q_into m;
          jacobian_refresher = jacobian_refresher m;
        };
  }
