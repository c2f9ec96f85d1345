type result = {
  trace : Numeric.Integrator.trace;
  dc_iterations : int;
}

(* Fold a wall-clock/iteration budget into the Newton options that
   every implicit step uses; an explicit budget in [newton_options]
   wins. *)
let merge_budget newton_options budget =
  match (newton_options, budget) with
  | _, None -> newton_options
  | Some o, Some _ when o.Numeric.Newton.budget <> None -> newton_options
  | Some o, Some _ -> Some { o with Numeric.Newton.budget }
  | None, Some _ -> Some { Numeric.Newton.default_options with budget }

let initial_state ?x0 ?newton_options ?budget mna =
  match x0 with
  | Some x -> (x, 0)
  | None ->
      let r = Dcop.solve ?newton_options ?budget mna in
      if not r.Dcop.converged then failwith "Transient: DC operating point failed";
      (r.Dcop.x, r.Dcop.newton_iterations)

let run ?method_ ?newton_options ?budget ?x0 ~mna ~t_stop ~steps () =
  let x0, dc_iterations = initial_state ?x0 ?newton_options ?budget mna in
  let newton_options = merge_budget newton_options budget in
  let trace =
    Telemetry.span "transient.run" @@ fun () ->
    Numeric.Integrator.transient ?newton_options ?method_ ~dae:(Mna.dae mna) ~x0 ~t0:0.0
      ~t1:t_stop ~steps ()
  in
  { trace; dc_iterations }

let differential_waveform mna result node_a node_b =
  Array.map
    (fun x -> Mna.differential_voltage mna x node_a node_b)
    result.trace.Numeric.Integrator.states
