let surface (sol : Solver.solution) ~unknown =
  let g = sol.Solver.grid in
  Array.init g.Grid.n1 (fun i ->
      Array.init g.Grid.n2 (fun j -> (Solver.state_at sol ~i ~j).(unknown)))

let surface_of_node sol mna node =
  surface sol ~unknown:(Circuit.Mna.node_index mna node)

let differential_surface sol mna node_a node_b =
  let sa = surface_of_node sol mna node_a and sb = surface_of_node sol mna node_b in
  Array.mapi (fun i row -> Array.mapi (fun j v -> v -. sb.(i).(j)) row) sa

type envelope_mode = At_t1 of float | Mean_t1 | Peak_t1

let mean_t1_waveform values =
  let n1 = Array.length values in
  let n2 = Array.length values.(0) in
  Array.init n2 (fun j ->
      let s = ref 0.0 in
      for i = 0 to n1 - 1 do
        s := !s +. values.(i).(j)
      done;
      !s /. float_of_int n1)

let envelope ?(mode = Mean_t1) (sol : Solver.solution) ~values =
  let g = sol.Solver.grid in
  match mode with
  | Mean_t1 -> mean_t1_waveform values
  | Peak_t1 ->
      Array.init g.Grid.n2 (fun j ->
          let m = ref neg_infinity in
          for i = 0 to g.Grid.n1 - 1 do
            if values.(i).(j) > !m then m := values.(i).(j)
          done;
          !m)
  | At_t1 frac ->
      Array.init g.Grid.n2 (fun j ->
          let column = Array.init g.Grid.n1 (fun i -> values.(i).(j)) in
          Numeric.Interp.linear_periodic column frac)

let envelope_times (sol : Solver.solution) =
  let g = sol.Solver.grid in
  Array.init g.Grid.n2 (Grid.t2_of g)

let diagonal (sol : Solver.solution) ~values ~t_start ~t_stop ~samples =
  let g = sol.Solver.grid in
  let t1p = Shear.t1_period g.Grid.shear and t2p = Shear.t2_period g.Grid.shear in
  let times =
    Array.init samples (fun k ->
        t_start +. ((t_stop -. t_start) *. float_of_int k /. float_of_int (max 1 (samples - 1))))
  in
  let series =
    Array.map
      (fun t -> Numeric.Interp.bilinear_periodic values (t /. t1p) (t /. t2p))
      times
  in
  (times, series)

(* Diagonal-consistency residual: the MPDE's defining property is that
   the diagonal x̂(t, t) of the multi-time surface solves the one-time
   circuit equations. Integrate a short reference transient — starting
   from the surface's own corner state x̂(0, 0), so the trajectory is
   already on the steady-state orbit — with trapezoidal steps fine
   enough to be near-exact, and compare against the interpolated
   diagonal. A residual at the discretization-error level certifies the
   surface; a large one flags an inconsistent (e.g. off-lattice or
   under-resolved) solution. *)
let diagonal_residual ?(periods = 2) ?(steps_per_period = 128)
    (sol : Solver.solution) ~unknown =
  let sys = sol.Solver.system in
  let t_stop = float_of_int periods *. Shear.t1_period sol.Solver.grid.Grid.shear in
  let steps = periods * steps_per_period in
  let dae = Assemble.to_dae sys ~source:(fun t -> Assemble.source_at sys ~t1:t ~t2:t) in
  match
    Numeric.Integrator.transient ~method_:Numeric.Integrator.Trapezoidal ~dae
      ~x0:(Solver.state_at sol ~i:0 ~j:0) ~t0:0.0 ~t1:t_stop ~steps ()
  with
  | exception Failure _ -> nan
  | trace ->
      let reference = Numeric.Integrator.sample trace unknown in
      let values = surface sol ~unknown in
      let _, diag =
        diagonal sol ~values ~t_start:0.0 ~t_stop ~samples:(steps + 1)
      in
      let err = ref 0.0 in
      let lo = ref infinity and hi = ref neg_infinity in
      Array.iteri
        (fun k v ->
          if v < !lo then lo := v;
          if v > !hi then hi := v;
          let e = Float.abs (v -. diag.(k)) in
          if e > !err then err := e)
        reference;
      let swing = !hi -. !lo in
      let scale =
        if swing > 1e-12 then swing
        else Float.max (Float.max (Float.abs !hi) (Float.abs !lo)) 1.0
      in
      !err /. scale

let t2_harmonic_amplitude ~values ~harmonic =
  Numeric.Fft.amplitude_at (mean_t1_waveform values) harmonic

let conversion_gain_db ~values ~rf_amplitude ~harmonic =
  let a = t2_harmonic_amplitude ~values ~harmonic in
  20.0 *. log10 (a /. rf_amplitude)

type mixing_product = {
  k1 : int;
  k2 : int;
  amplitude : float;
  frequency : float;
}

(* 2-D DFT by FFT along each axis; the surface is real, so only the
   half-plane k1 ∈ [0, n1/2] is enumerated, with k2 signed. *)
let mixing_spectrum (sol : Solver.solution) ~values ?(top = 12) () =
  let g = sol.Solver.grid in
  let n1 = g.Grid.n1 and n2 = g.Grid.n2 in
  let f1 = Shear.fast_freq g.Grid.shear and fd = Shear.slow_freq g.Grid.shear in
  (* FFT along j for every i. *)
  let rows =
    Array.init n1 (fun i ->
        Numeric.Fft.fft (Linalg.Cvec.of_real (Array.init n2 (fun j -> values.(i).(j)))))
  in
  (* FFT along i for every k2. *)
  let spectrum =
    Array.init n2 (fun k2 -> Numeric.Fft.fft (Array.init n1 (fun i -> rows.(i).(k2))))
  in
  let norm = float_of_int (n1 * n2) in
  let products = ref [] in
  for k1 = 0 to n1 / 2 do
    for k2_raw = 0 to n2 - 1 do
      let k2 = if k2_raw <= n2 / 2 then k2_raw else k2_raw - n2 in
      (* Skip the conjugate duplicates on the k1 = 0 (and even-n1
         Nyquist) lines, where (0, k2) and (0, −k2) describe the same
         real component. *)
      let self_line = k1 = 0 || (n1 mod 2 = 0 && 2 * k1 = n1) in
      if not (self_line && k2 < 0) then begin
        let z = spectrum.(k2_raw).(k1) in
        let self_k2 = k2 = 0 || (n2 mod 2 = 0 && 2 * abs k2 = n2) in
        let scale = if self_line && self_k2 then 1.0 else 2.0 in
        let amplitude = scale *. Complex.norm z /. norm in
        let frequency = (float_of_int k1 *. f1) +. (float_of_int k2 *. fd) in
        products := { k1; k2; amplitude; frequency } :: !products
      end
    done
  done;
  let sorted =
    List.sort (fun a b -> compare b.amplitude a.amplitude) !products
  in
  List.filteri (fun idx _ -> idx < top) sorted

let thd ~values ?max_harmonic () =
  let baseband = mean_t1_waveform values in
  Numeric.Fft.thd ?max_harmonic ~peak:(Linalg.Vec.norm_inf baseband)
    (Numeric.Fft.real_harmonics baseband)
