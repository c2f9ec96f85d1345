module Budget = Resilience.Budget

type stats = {
  steps_taken : int;
  steps_rejected : int;
  newton_iterations : int;
  converged : bool;
  exhausted : Budget.exhaustion option;
}

let trace ?(initial_step = 0.1) ?(min_step = 1e-6) ?(max_step = 0.5)
    ?(max_total_steps = 200) ?budget
    ?(newton_options = Newton.default_options) ~problem_at ~x0 () =
  Telemetry.span "continuation" @@ fun () ->
  let newton_options =
    match (budget, newton_options.Newton.budget) with
    | Some b, None -> { newton_options with Newton.budget = Some b }
    | _ -> newton_options
  in
  let newton_iterations = ref 0 in
  let steps_taken = ref 0 and steps_rejected = ref 0 in
  let total_solves = ref 0 in
  let exhausted = ref None in
  (* One Newton solve at a fixed lambda. [`Halt] means stop path
     tracking entirely: the budget ran out (retrying at a smaller step
     would burn what little budget remains on a doomed path) or the
     total-solve cap tripped (a pathological reject/halve cycle must not
     translate into an unbounded number of Newton solves). *)
  let run lambda guess =
    if !total_solves >= max_total_steps then `Halt
    else begin
      incr total_solves;
      Telemetry.gauge "continuation.lambda" lambda;
      match Option.map Budget.exhausted budget with
      | Some (Some e) ->
          exhausted := Some e;
          `Halt
      | _ -> (
          let x, stats =
            Newton.solve ~options:newton_options (problem_at lambda) guess
          in
          newton_iterations := !newton_iterations + stats.Newton.iterations;
          match stats.Newton.outcome with
          | Newton.Converged -> `Ok x
          | Newton.Exhausted e ->
              exhausted := Some e;
              `Halt
          | _ -> `Failed)
    end
  in
  let finish x converged =
    Telemetry.count ~by:!steps_taken "continuation.steps";
    Telemetry.count ~by:!steps_rejected "continuation.rejected";
    ( x,
      {
        steps_taken = !steps_taken;
        steps_rejected = !steps_rejected;
        newton_iterations = !newton_iterations;
        converged;
        exhausted = !exhausted;
      } )
  in
  match run 0.0 x0 with
  | `Failed | `Halt -> finish x0 false
  | `Ok x_start ->
      let rec go lambda x step easy_streak =
        if lambda >= 1.0 then (x, true)
        else if step < min_step then (x, false)
        else begin
          let lambda' = Float.min 1.0 (lambda +. step) in
          match run lambda' x with
          | `Ok x' ->
              incr steps_taken;
              let step' =
                if easy_streak >= 1 then Float.min max_step (2.0 *. step) else step
              in
              go lambda' x' step' (easy_streak + 1)
          | `Failed ->
              incr steps_rejected;
              go lambda x (step /. 4.0) 0
          | `Halt -> (x, false)
        end
      in
      let x_final, converged = go 0.0 x_start initial_step 0 in
      finish x_final converged
