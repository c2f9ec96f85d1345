type periodic =
  | Sin of { phase : float }
  | Cos of { phase : float }
  | Trapezoid of {
      low : float;
      high : float;
      delay_frac : float;
      rise_frac : float;
      high_frac : float;
      fall_frac : float;
    }
  | Bits of { bits : bool array; low : float; high : float; transition_frac : float }
  | Sampled of float array

type factor = { shape : periodic; freq : float }
type term = { gain : float; factors : factor list }
type t = { dc : float; terms : term list }

let two_pi = 8.0 *. atan 1.0

let[@inline] frac theta =
  let f = Float.rem theta 1.0 in
  if f < 0.0 then f +. 1.0 else f

(* Smooth raised-cosine ramp from 0 to 1 over w ∈ [0, 1]. *)
let[@inline] smooth w = 0.5 *. (1.0 -. cos (w *. (two_pi /. 2.0)))

(* Inlined into both evaluators, so that neither the phase nor the
   shape's value is boxed (only [Sampled] calls out, to the
   interpolator). *)
let[@inline] eval_periodic shape theta =
  match shape with
  | Sin { phase } -> sin (two_pi *. (theta +. phase))
  | Cos { phase } -> cos (two_pi *. (theta +. phase))
  | Trapezoid { low; high; delay_frac; rise_frac; high_frac; fall_frac } ->
      let u = frac theta in
      let t1 = delay_frac in
      let t2 = t1 +. rise_frac in
      let t3 = t2 +. high_frac in
      let t4 = t3 +. fall_frac in
      if u < t1 then low
      else if u < t2 then low +. ((high -. low) *. ((u -. t1) /. Float.max rise_frac 1e-12))
      else if u < t3 then high
      else if u < t4 then high -. ((high -. low) *. ((u -. t3) /. Float.max fall_frac 1e-12))
      else low
  | Bits { bits; low; high; transition_frac } ->
      let n = Array.length bits in
      if n = 0 then low
      else begin
        let u = frac theta *. float_of_int n in
        let k = min (n - 1) (int_of_float u) in
        let w = u -. float_of_int k in
        let current = if bits.(k) then high else low in
        if transition_frac <= 0.0 then current
        else if w < transition_frac then begin
          (* Blend from the previous symbol across the boundary. *)
          let prev = if bits.((k + n - 1) mod n) then high else low in
          prev +. ((current -. prev) *. smooth (w /. transition_frac))
        end
        else current
      end
  | Sampled samples -> Numeric.Interp.linear_periodic samples theta

(* dc + Σ gain·Π factors, summed and multiplied left to right. Written
   as loops over the lists: sources are evaluated at every time step,
   and a fold's closures would be the evaluation's only allocations. *)
let eval_with ~phase_of w =
  let acc = ref w.dc and terms = ref w.terms in
  while not (List.is_empty !terms) do
    match !terms with
    | [] -> ()
    | { gain; factors } :: rest ->
        let prod = ref gain and fs = ref factors in
        while not (List.is_empty !fs) do
          match !fs with
          | [] -> ()
          | { shape; freq } :: more ->
              prod := !prod *. eval_periodic shape (phase_of freq);
              fs := more
        done;
        acc := !acc +. !prod;
        terms := rest
  done;
  !acc

(* The phase [phases.(i)] of the first [freqs.(i)] equal to [f]. *)
let[@inline] phase_in ~(freqs : float array) ~(phases : float array) (f : float) =
  let i = ref 0 in
  while !i < Array.length freqs && Array.unsafe_get freqs !i <> f do
    incr i
  done;
  if !i = Array.length freqs then invalid_arg "Waveform.eval_phases_into: frequency not listed";
  Array.unsafe_get phases !i

(* [eval_with] with each factor at the phase [freq *. t], or with
   [~listed] at its listed phase: the phase rule is written in rather
   than passed as a closure over the boxed [t], so that no phase is
   boxed. *)
let[@inline] eval_at ~listed ~freqs ~phases w t =
  let acc = ref w.dc and terms = ref w.terms in
  while not (List.is_empty !terms) do
    match !terms with
    | [] -> ()
    | { gain; factors } :: rest ->
        let prod = ref gain and fs = ref factors in
        while not (List.is_empty !fs) do
          match !fs with
          | [] -> ()
          | { shape; freq } :: more ->
              let theta = if listed then phase_in ~freqs ~phases freq else freq *. t in
              prod := !prod *. eval_periodic shape theta;
              fs := more
        done;
        acc := !acc +. !prod;
        terms := rest
  done;
  !acc

let[@inline] eval w t = eval_at ~listed:false ~freqs:[||] ~phases:[||] w t
let eval_into w t out k = out.(k) <- eval_at ~listed:false ~freqs:[||] ~phases:[||] w t

let eval_phases_into w ~freqs ~phases out k =
  out.(k) <- eval_at ~listed:true ~freqs ~phases w 0.0

let frequencies w =
  let add acc f = if List.mem f acc then acc else f :: acc in
  List.fold_left
    (fun acc { factors; _ } ->
      List.fold_left (fun acc { freq; _ } -> add acc freq) acc factors)
    [] w.terms

let dc v = { dc = v; terms = [] }

let sine ?(offset = 0.0) ?(phase = 0.0) ~amplitude ~freq () =
  { dc = offset; terms = [ { gain = amplitude; factors = [ { shape = Sin { phase }; freq } ] } ] }

let cosine ?(offset = 0.0) ?(phase = 0.0) ~amplitude ~freq () =
  { dc = offset; terms = [ { gain = amplitude; factors = [ { shape = Cos { phase }; freq } ] } ] }

let pulse ?(delay_frac = 0.0) ?(rise_frac = 0.01) ?(fall_frac = 0.01) ~low ~high ~duty
    ~freq () =
  let high_frac = Float.max 0.0 (duty -. rise_frac) in
  {
    dc = 0.0;
    terms =
      [
        {
          gain = 1.0;
          factors =
            [ { shape = Trapezoid { low; high; delay_frac; rise_frac; high_frac; fall_frac }; freq } ];
        };
      ];
  }

let modulated_carrier ?(carrier_phase = 0.0) ?(transition_frac = 0.05) ?(low = 0.0)
    ~amplitude ~carrier_freq ~bits ~symbol_freq () =
  let n = max 1 (Array.length bits) in
  let pattern_freq = symbol_freq /. float_of_int n in
  {
    dc = 0.0;
    terms =
      [
        {
          gain = amplitude;
          factors =
            [
              { shape = Cos { phase = carrier_phase }; freq = carrier_freq };
              { shape = Bits { bits; low; high = 1.0; transition_frac }; freq = pattern_freq };
            ];
        };
      ];
  }

let sum a b = { dc = a.dc +. b.dc; terms = a.terms @ b.terms }

let scale s w =
  { dc = s *. w.dc; terms = List.map (fun t -> { t with gain = s *. t.gain }) w.terms }
