type polarity = Nmos | Pmos

type params = {
  polarity : polarity;
  vt0 : float;
  kp : float;
  lambda : float;
  cgs : float;
  cgd : float;
  gds_min : float;
}

let default_nmos =
  { polarity = Nmos; vt0 = 0.5; kp = 2e-3; lambda = 0.02; cgs = 20e-15; cgd = 5e-15; gds_min = 1e-9 }

let default_pmos = { default_nmos with polarity = Pmos; vt0 = 0.5; kp = 1e-3 }

let vgs_slot = 0
let vds_slot = 1
let ids_slot = 2
let gm_slot = 3
let gds_slot = 4
let region_slot = 5
let buffer_size = 6

(* Square-law NMOS core for vds >= 0. The helpers are inlined into
   [evaluate_into], so the voltages stay unboxed locals. *)
let[@inline] nmos_forward p ~vgs ~vds out =
  let vov = vgs -. p.vt0 in
  if vov <= 0.0 then begin
    out.(ids_slot) <- 0.0;
    out.(gm_slot) <- 0.0;
    out.(gds_slot) <- 0.0;
    out.(region_slot) <- 0.0
  end
  else if vds < vov then begin
    let clm = 1.0 +. (p.lambda *. vds) in
    let raw = p.kp *. ((vov *. vds) -. (0.5 *. vds *. vds)) in
    out.(ids_slot) <- raw *. clm;
    out.(gm_slot) <- p.kp *. vds *. clm;
    out.(gds_slot) <- (p.kp *. (vov -. vds) *. clm) +. (raw *. p.lambda);
    out.(region_slot) <- 1.0
  end
  else begin
    let clm = 1.0 +. (p.lambda *. vds) in
    let raw = 0.5 *. p.kp *. vov *. vov in
    out.(ids_slot) <- raw *. clm;
    out.(gm_slot) <- p.kp *. vov *. clm;
    out.(gds_slot) <- raw *. p.lambda;
    out.(region_slot) <- 2.0
  end

(* vds < 0: exchange drain and source. With vgs' = vgs - vds and
   vds' = -vds, the physical drain current is -f(vgs', vds') and the
   chain rule gives gm = -gm', gds = gm' + gds'. *)
let[@inline] nmos_any p ~vgs ~vds out =
  if vds >= 0.0 then nmos_forward p ~vgs ~vds out
  else begin
    nmos_forward p ~vgs:(vgs -. vds) ~vds:(-.vds) out;
    let gm' = out.(gm_slot) in
    out.(ids_slot) <- -.out.(ids_slot);
    out.(gm_slot) <- -.gm';
    out.(gds_slot) <- gm' +. out.(gds_slot)
  end

let evaluate_into p out =
  let vgs = out.(vgs_slot) and vds = out.(vds_slot) in
  (match p.polarity with
  | Nmos -> nmos_any p ~vgs ~vds out
  | Pmos ->
      (* ids_p(vgs, vds) = -ids_n(-vgs, -vds); derivatives keep sign. *)
      nmos_any p ~vgs:(-.vgs) ~vds:(-.vds) out;
      out.(ids_slot) <- -.out.(ids_slot));
  out.(ids_slot) <- out.(ids_slot) +. (p.gds_min *. vds);
  out.(gds_slot) <- out.(gds_slot) +. p.gds_min

type operating_point = {
  ids : float;
  gm : float;
  gds : float;
  region : [ `Cutoff | `Triode | `Saturation ];
}

let evaluate p ~vgs ~vds =
  let o = Array.make buffer_size 0.0 in
  o.(vgs_slot) <- vgs;
  o.(vds_slot) <- vds;
  evaluate_into p o;
  let region = match o.(region_slot) with 0.0 -> `Cutoff | 1.0 -> `Triode | _ -> `Saturation in
  { ids = o.(ids_slot); gm = o.(gm_slot); gds = o.(gds_slot); region }
