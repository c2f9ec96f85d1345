(* Library entry point: the persistent solve service. [Catalog] is the
   shared circuit registry; [Protocol] speaks rfss.jobs/1; [Cache] is
   the result store (warm starts go through Engine.Warm); [Jobs]
   executes; [Service] mounts it all on the Observe HTTP stack. *)

module Catalog = Catalog
module Protocol = Protocol
module Cache = Cache
module Jobs = Jobs
module Service = Service
