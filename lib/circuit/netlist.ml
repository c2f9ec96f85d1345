type t = {
  node_table : (string, int) Hashtbl.t;
  mutable next_node : int;
  mutable device_list : Device.t list;  (* reverse insertion order *)
  device_names : (string, unit) Hashtbl.t;
  mutable names_by_index : string list;  (* reverse order, index 1.. *)
}

let create () =
  {
    node_table = Hashtbl.create 16;
    next_node = 1;
    device_list = [];
    device_names = Hashtbl.create 16;
    names_by_index = [];
  }

let is_ground s = s = "0" || String.lowercase_ascii s = "gnd"

let node t s =
  if is_ground s then 0
  else
    match Hashtbl.find_opt t.node_table s with
    | Some i -> i
    | None ->
        let i = t.next_node in
        Hashtbl.add t.node_table s i;
        t.next_node <- i + 1;
        t.names_by_index <- s :: t.names_by_index;
        i

let add t d =
  let n = Device.name d in
  if Hashtbl.mem t.device_names n then
    invalid_arg (Printf.sprintf "Netlist.add: duplicate device name %S" n);
  Hashtbl.add t.device_names n ();
  t.device_list <- d :: t.device_list

let devices t = List.rev t.device_list
let num_nodes t = t.next_node - 1

let node_name t i =
  if i = 0 then "0"
  else begin
    let names = Array.of_list (List.rev t.names_by_index) in
    if i >= 1 && i <= Array.length names then names.(i - 1)
    else invalid_arg "Netlist.node_name: unknown node"
  end

let find_node t s =
  if is_ground s then Some 0 else Hashtbl.find_opt t.node_table s

(* Every field that shapes the MNA system — device kind, name, node
   indices and element values, in insertion order — but no source
   waveform: the points of a tone sweep over one circuit share a
   digest, and so have the same unknowns. *)
let digest t =
  let module F = Telemetry.Fnv in
  let element = function
    | Device.Resistor { resistance; _ } -> ("R", [ resistance ])
    | Device.Capacitor { capacitance; _ } -> ("C", [ capacitance ])
    | Device.Inductor { inductance; _ } -> ("L", [ inductance ])
    | Device.Voltage_source _ -> ("V", [])
    | Device.Current_source _ -> ("I", [])
    | Device.Diode { params = p; _ } ->
        ("D", [ p.Diode.saturation_current; p.ideality; p.junction_cap; p.gmin ])
    | Device.Mosfet { params = p; _ } ->
        ( (match p.Mosfet.polarity with Mosfet.Nmos -> "MN" | Pmos -> "MP"),
          [ p.vt0; p.kp; p.lambda; p.cgs; p.cgd; p.gds_min ] )
    | Device.Bjt { params = p; _ } ->
        ( (match p.Bjt.polarity with Bjt.Npn -> "QN" | Pnp -> "QP"),
          [
            p.saturation_current; p.beta_forward; p.beta_reverse; p.cbe; p.cbc;
            p.gmin;
          ] )
    | Device.Vccs { gm; _ } -> ("G", [ gm ])
    | Device.Multiplier { gain; _ } -> ("X", [ gain ])
  in
  F.hex
    (List.fold_left
       (fun h d ->
         let kind, values = element d in
         let h = F.mix_string (F.mix_string h kind) (Device.name d) in
         let h = List.fold_left F.mix_int h (Device.nodes d) in
         List.fold_left F.mix_float h values)
       F.basis (devices t))

let resistor t name p m resistance =
  add t (Device.Resistor { name; n_plus = node t p; n_minus = node t m; resistance })

let capacitor t name p m capacitance =
  add t (Device.Capacitor { name; n_plus = node t p; n_minus = node t m; capacitance })

let inductor t name p m inductance =
  add t (Device.Inductor { name; n_plus = node t p; n_minus = node t m; inductance })

let vsource t name p m waveform =
  add t (Device.Voltage_source { name; n_plus = node t p; n_minus = node t m; waveform })

let isource t name p m waveform =
  add t (Device.Current_source { name; n_plus = node t p; n_minus = node t m; waveform })

let diode t name a c params =
  add t (Device.Diode { name; anode = node t a; cathode = node t c; params })

let mosfet t name ~drain ~gate ~source params =
  add t
    (Device.Mosfet
       { name; drain = node t drain; gate = node t gate; source = node t source; params })

let bjt t name ~collector ~base ~emitter params =
  add t
    (Device.Bjt
       {
         name;
         collector = node t collector;
         base = node t base;
         emitter = node t emitter;
         params;
       })

let vccs t name ~out_plus ~out_minus ~in_plus ~in_minus gm =
  add t
    (Device.Vccs
       {
         name;
         out_plus = node t out_plus;
         out_minus = node t out_minus;
         in_plus = node t in_plus;
         in_minus = node t in_minus;
         gm;
       })

let multiplier t name ~out_plus ~out_minus ~a_plus ~a_minus ~b_plus ~b_minus gain =
  add t
    (Device.Multiplier
       {
         name;
         out_plus = node t out_plus;
         out_minus = node t out_minus;
         a_plus = node t a_plus;
         a_minus = node t a_minus;
         b_plus = node t b_plus;
         b_minus = node t b_minus;
         gain;
       })
