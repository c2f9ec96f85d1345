type polarity = Npn | Pnp

type params = {
  polarity : polarity;
  saturation_current : float;
  beta_forward : float;
  beta_reverse : float;
  cbe : float;
  cbc : float;
  gmin : float;
}

let default_npn =
  {
    polarity = Npn;
    saturation_current = 1e-15;
    beta_forward = 100.0;
    beta_reverse = 2.0;
    cbe = 20e-15;
    cbc = 5e-15;
    gmin = 1e-12;
  }

let default_pnp = { default_npn with polarity = Pnp }

let vbe_slot = 0
let vbc_slot = 1
let ic_slot = 2
let ib_slot = 3
let ie_slot = 4
let d_ic_d_vbe_slot = 5
let d_ic_d_vbc_slot = 6
let d_ib_d_vbe_slot = 7
let d_ib_d_vbc_slot = 8
let buffer_size = 9

let vt = Diode.thermal_voltage

(* Limited exponential, linearly continued above 40·Vt: its value into
   [out.(k)] and its consistent derivative into [out.(k + 1)]. The
   helpers are inlined into [evaluate_into], so the voltages stay
   unboxed locals. *)
let[@inline] limited_exp v out k =
  let vc = 40.0 *. vt in
  if v <= vc then begin
    let e = exp (v /. vt) in
    out.(k) <- e -. 1.0;
    out.(k + 1) <- e /. vt
  end
  else begin
    let e = exp (vc /. vt) in
    out.(k) <- (e -. 1.0) +. (e /. vt *. (v -. vc));
    out.(k + 1) <- e /. vt
  end

let[@inline] evaluate_npn p ~vbe ~vbc out =
  (* The derivative slots stage the two exponentials. *)
  limited_exp vbe out d_ic_d_vbe_slot;
  limited_exp vbc out d_ib_d_vbe_slot;
  let ef = out.(d_ic_d_vbe_slot) and gf_raw = out.(d_ic_d_vbc_slot) in
  let er = out.(d_ib_d_vbe_slot) and gr_raw = out.(d_ib_d_vbc_slot) in
  let i_f = p.saturation_current *. ef and i_r = p.saturation_current *. er in
  let gf = p.saturation_current *. gf_raw and gr = p.saturation_current *. gr_raw in
  let kr = 1.0 +. (1.0 /. p.beta_reverse) in
  let ic = i_f -. (i_r *. kr) +. (p.gmin *. (-.vbc)) in
  let ib = (i_f /. p.beta_forward) +. (i_r /. p.beta_reverse) +. (p.gmin *. (vbe +. vbc)) in
  out.(ic_slot) <- ic;
  out.(ib_slot) <- ib;
  out.(ie_slot) <- -.(ic +. ib);
  out.(d_ic_d_vbe_slot) <- gf;
  out.(d_ic_d_vbc_slot) <- (-.gr *. kr) -. p.gmin;
  out.(d_ib_d_vbe_slot) <- (gf /. p.beta_forward) +. p.gmin;
  out.(d_ib_d_vbc_slot) <- (gr /. p.beta_reverse) +. p.gmin

let evaluate_into p out =
  let vbe = out.(vbe_slot) and vbc = out.(vbc_slot) in
  match p.polarity with
  | Npn -> evaluate_npn p ~vbe ~vbc out
  | Pnp ->
      (* Mirror: currents and voltages negate; derivatives keep sign. *)
      evaluate_npn p ~vbe:(-.vbe) ~vbc:(-.vbc) out;
      out.(ic_slot) <- -.out.(ic_slot);
      out.(ib_slot) <- -.out.(ib_slot);
      out.(ie_slot) <- -.out.(ie_slot)

type operating_point = {
  ic : float;
  ib : float;
  ie : float;
  d_ic_d_vbe : float;
  d_ic_d_vbc : float;
  d_ib_d_vbe : float;
  d_ib_d_vbc : float;
}

let evaluate p ~vbe ~vbc =
  let o = Array.make buffer_size 0.0 in
  o.(vbe_slot) <- vbe;
  o.(vbc_slot) <- vbc;
  evaluate_into p o;
  {
    ic = o.(ic_slot);
    ib = o.(ib_slot);
    ie = o.(ie_slot);
    d_ic_d_vbe = o.(d_ic_d_vbe_slot);
    d_ic_d_vbc = o.(d_ic_d_vbc_slot);
    d_ib_d_vbe = o.(d_ib_d_vbe_slot);
    d_ib_d_vbc = o.(d_ib_d_vbc_slot);
  }
