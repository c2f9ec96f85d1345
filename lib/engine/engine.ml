(** Unified steady-state solver API.

    One problem description ({!Problem}), one options record
    ({!Options}), one entry point ({!run}) over the five backends, one
    result shape ({!Result}) out — plus {!Sweep}, a parallel parameter
    sweep executor on OCaml 5 domains, and {!Warm}, the warm-start
    store it shares with the solve service. DESIGN.md §11 documents the
    architecture and the mapping from the unified option vocabulary
    onto each backend's native records.

    {[
      let problem =
        Engine.Problem.make ~label:"mixer" ~f_fast:1e6 ~fd:1e4
          ~output:"out" (fun () -> Circuits.ideal_mixer ())
      in
      let r = Engine.run problem (Engine.make Engine.Mpde) in
      Printf.printf "%s converged=%b\n" r.label r.converged
    ]} *)

module Problem = Problem
module Options = Options
module Key = Key
module Pool = Pool
module Warm = Warm
module Sweep = Sweep
module Checkpoint = Checkpoint
include Backend
