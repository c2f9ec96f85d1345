type params = {
  saturation_current : float;
  ideality : float;
  junction_cap : float;
  gmin : float;
}

let thermal_voltage = 0.025852

let default =
  { saturation_current = 1e-14; ideality = 1.0; junction_cap = 0.0; gmin = 1e-12 }

(* Linear continuation above v_crit keeps the exponential bounded while
   preserving C¹ continuity, the standard SPICE junction treatment. *)
let v_crit p = p.ideality *. thermal_voltage *. 40.0

let v_slot = 0
let current_slot = 1
let conductance_slot = 2
let charge_slot = 3
let buffer_size = 4

(* Current and conductance share one exponential. *)
let evaluate_into p out =
  let v = out.(v_slot) in
  out.(charge_slot) <- p.junction_cap *. v;
  let vt = p.ideality *. thermal_voltage in
  let vc = v_crit p in
  if v <= vc then begin
    let e = exp (v /. vt) in
    out.(current_slot) <- (p.saturation_current *. (e -. 1.0)) +. (p.gmin *. v);
    out.(conductance_slot) <- (p.saturation_current /. vt *. e) +. p.gmin
  end
  else begin
    let e = exp (vc /. vt) in
    out.(current_slot) <-
      (p.saturation_current *. ((e -. 1.0) +. (e /. vt *. (v -. vc)))) +. (p.gmin *. v);
    out.(conductance_slot) <- (p.saturation_current /. vt *. e) +. p.gmin
  end
