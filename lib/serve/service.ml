(* rfssd: mount the rfss.jobs/1 endpoints onto the Observe server.

   The observe layer stays protocol-agnostic — it hands every parsed
   request (with framed body) to this route function first. We own
   /jobs; everything else falls through to the built-in introspection
   endpoints, which keep working for the service process (its worker
   lifecycle events flow through Publish like a sweep's). *)

let routes jobs (req : Observe.Http.request) body =
  match req.Observe.Http.path with
  | "/jobs" -> (
      match req.Observe.Http.meth with
      | "POST" -> (
          match Protocol.parse_job body with
          | Error e ->
              Some
                (Observe.Server.Response
                   (Observe.Http.response ~status:400
                      ~content_type:"application/jsonl"
                      (Protocol.error_line (Protocol.error_message e) ^ "\n")))
          | Ok job ->
              let handle = Jobs.submit jobs job in
              Some
                (Observe.Server.Stream
                   {
                     header = Observe.Http.stream_header ();
                     poll = Jobs.poll handle;
                   }))
      | "GET" ->
          Some
            (Observe.Server.Response
               (Observe.Http.response ~content_type:"application/json"
                  (Jobs.status_json jobs ^ "\n")))
      | _ ->
          Some
            (Observe.Server.Response
               (Observe.Http.method_not_allowed ~allow:[ "GET"; "POST" ])))
  | _ -> None

type t = { server : Observe.Server.t; jobs : Jobs.t }

let start ?workers ?cache_capacity ?warm_capacity addr =
  let jobs = Jobs.create ?workers ?cache_capacity ?warm_capacity () in
  match Observe.Server.start ~routes:(routes jobs) addr with
  | Error e ->
      Jobs.stop jobs;
      Error e
  | Ok server ->
      (* Expose zeroed serve.* counters before the first job arrives —
         scrapers should see the family, not an absence. *)
      Jobs.publish_metrics jobs;
      Ok { server; jobs }

let addr t = Observe.Server.addr t.server

let jobs t = t.jobs

let stop t =
  Observe.Server.stop t.server;
  Jobs.stop t.jobs
