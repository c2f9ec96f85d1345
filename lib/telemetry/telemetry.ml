(* Library entry point: the recorder API lives in Core (included here so
   call sites read [Telemetry.span]/[Telemetry.count]); the clock and
   the exporters are exposed as submodules. *)

include Core
module Clock = Clock
module Json = Json
module Fnv = Fnv
module Summary = Summary
module Sink = Sink
module Merge = Merge
module Runtime = Runtime
