(* Single-domain select() loop. Every fd is non-blocking; per-connection
   state is a pair of buffers. Streaming connections additionally carry
   the next event seq they owe the subscriber, or — for routes that
   stream — the poll thunk that produces their lines. *)

type reply =
  | Response of string
  | Stream of {
      header : string;
      poll : unit -> [ `Data of string | `Wait | `Eof ];
    }

type route = Http.request -> string -> reply option

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : Buffer.t;
  mutable out_off : int;  (* bytes of [out] already written *)
  mutable streaming : bool;
  mutable next_seq : int;  (* first event seq not yet queued *)
  mutable custom : (unit -> [ `Data of string | `Wait | `Eof ]) option;
  mutable close_after_flush : bool;
  mutable dead : bool;
}

type t = {
  listen_fd : Unix.file_descr;
  bound : Addr.t;
  routes : route;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  mutable dom : unit Domain.t option;
  mutable stopped : bool;
}

let max_out_buffer = 4 * 1024 * 1024

let wake fd = try ignore (Unix.write_substring fd "x" 0 1) with _ -> ()

let drain fd =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read fd buf 0 256 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception _ -> ()
  in
  go ()

let respond c body_or_status =
  Buffer.add_string c.out body_or_status;
  c.close_after_flush <- true

(* Queue every retained event from [c.next_seq] on; advance the cursor. *)
let feed_stream c =
  let slice = Publish.events_since (c.next_seq - 1) in
  List.iter
    (fun (e : Publish.event) ->
      Buffer.add_string c.out (Publish.event_to_json e);
      Buffer.add_char c.out '\n')
    slice.events;
  (match List.rev slice.events with
  | last :: _ -> c.next_seq <- last.Publish.seq + 1
  | [] -> if slice.oldest_seq > c.next_seq then c.next_seq <- slice.oldest_seq);
  if Buffer.length c.out - c.out_off > max_out_buffer then c.dead <- true

(* Pump a route's stream into the connection's output buffer until it
   yields [`Wait] (poll again next loop iteration) or [`Eof] (flush
   what is queued, then close — the HTTP/1.0 end-of-stream signal).
   An [`Eof] that finds nothing queued closes at once: the connection
   is only selected for writing while output is pending, so
   [write_conn] would never see it again. *)
let feed_custom c =
  match c.custom with
  | None -> ()
  | Some poll ->
      let rec go () =
        if Buffer.length c.out - c.out_off > max_out_buffer then c.dead <- true
        else
          match poll () with
          | `Data s ->
              Buffer.add_string c.out s;
              go ()
          | `Wait -> ()
          | `Eof ->
              c.custom <- None;
              if Buffer.length c.out - c.out_off = 0 then c.dead <- true
              else c.close_after_flush <- true
      in
      go ()

let builtin_paths = [ "/metrics"; "/healthz"; "/events" ]

let handle_request routes c (req : Http.request) body =
  match routes req body with
  | Some (Response raw) -> respond c raw
  | Some (Stream { header; poll }) ->
      Buffer.add_string c.out header;
      c.custom <- Some poll;
      feed_custom c
  | None -> (
      match (req.Http.meth, req.Http.path) with
      | "GET", "/metrics" ->
          let body =
            Diagnostics.Registry.to_prometheus (Publish.registry_snapshot ())
          in
          respond c
            (Http.response ~content_type:"text/plain; version=0.0.4" body)
      | "GET", "/healthz" ->
          respond c
            (Http.response ~content_type:"application/json"
               (Publish.healthz_json () ^ "\n"))
      | "GET", "/events" ->
          let since = Option.value (Http.query_int req "since") ~default:0 in
          Buffer.add_string c.out (Http.stream_header ());
          Buffer.add_string c.out (Publish.events_header ~since);
          Buffer.add_char c.out '\n';
          c.streaming <- true;
          c.next_seq <- since + 1;
          feed_stream c
      | _, p when List.mem p builtin_paths ->
          respond c (Http.method_not_allowed ~allow:[ "GET" ])
      | _, p -> respond c (Http.response ~status:404 ("no such endpoint: " ^ p)))

let read_conn routes c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 4096 with
  | 0 ->
      (* EOF: the peer is gone (half-close is not worth supporting —
         leaving the fd selectable at EOF would spin the loop). *)
      c.dead <- true
  | n -> (
      Buffer.add_subbytes c.inbuf buf 0 n;
      match Http.parse_framed (Buffer.contents c.inbuf) with
      | Http.Incomplete ->
          (* Belt and braces: the framer caps declared sizes, this caps
             a peer that never finishes a request at all. *)
          if Buffer.length c.inbuf > Http.max_header_bytes + Http.max_body_bytes
          then c.dead <- true
      | Http.Too_large ->
          Buffer.clear c.inbuf;
          respond c (Http.response ~status:413 "request too large\n")
      | Http.Malformed e ->
          Buffer.clear c.inbuf;
          respond c (Http.response ~status:400 (e ^ "\n"))
      | Http.Complete (req, body) ->
          Buffer.clear c.inbuf;
          handle_request routes c req body)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception _ -> c.dead <- true

let write_conn c =
  let pending = Buffer.length c.out - c.out_off in
  if pending > 0 then begin
    match
      Unix.write_substring c.fd (Buffer.contents c.out) c.out_off pending
    with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0;
          if c.close_after_flush then c.dead <- true
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception _ -> c.dead <- true
  end
  else if c.close_after_flush && not c.streaming then c.dead <- true

let close_quietly fd = try Unix.close fd with _ -> ()

let serve t ~flush_interval =
  let conns = ref [] in
  let last_flush = ref (Telemetry.Clock.wall ()) in
  let accept_all () =
    let rec go () =
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          conns :=
            { fd; inbuf = Buffer.create 256; out = Buffer.create 1024;
              out_off = 0; streaming = false; next_seq = 1; custom = None;
              close_after_flush = false; dead = false }
            :: !conns;
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception _ -> ()
    in
    go ()
  in
  while not (Atomic.get t.stop_flag) do
    (* Feed live events to streaming subscribers before sleeping. *)
    List.iter (fun c -> if c.streaming && not c.dead then feed_stream c) !conns;
    (* Poll route-owned streams (job result feeds) the same way. *)
    List.iter (fun c -> if not c.dead then feed_custom c) !conns;
    let now = Telemetry.Clock.wall () in
    if now -. !last_flush >= flush_interval then begin
      Publish.flush ();
      last_flush := now
    end;
    let readers =
      t.listen_fd :: t.wake_r
      :: List.filter_map (fun c -> if c.dead then None else Some c.fd) !conns
    in
    let writers =
      List.filter_map
        (fun c ->
          if (not c.dead) && Buffer.length c.out - c.out_off > 0 then Some c.fd
          else None)
        !conns
    in
    (match Unix.select readers writers [] 0.05 with
    | rs, ws, _ ->
        if List.mem t.wake_r rs then drain t.wake_r;
        if List.mem t.listen_fd rs then accept_all ();
        List.iter
          (fun c ->
            if (not c.dead) && List.mem c.fd rs then read_conn t.routes c;
            if (not c.dead) && List.mem c.fd ws then write_conn c)
          !conns
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (EBADF, _, _) -> ());
    let dead, alive = List.partition (fun c -> c.dead) !conns in
    List.iter (fun c -> close_quietly c.fd) dead;
    conns := alive
  done;
  (* Graceful shutdown: the publisher may have pushed final events
     (run_finished, the last checkpoint) between our last feed and the
     stop signal. Feed streams once more and give every connection a
     short, bounded best-effort flush so close-delimited subscribers
     receive the complete stream rather than a truncated one. *)
  List.iter (fun c -> if c.streaming && not c.dead then feed_stream c) !conns;
  List.iter (fun c -> if not c.dead then feed_custom c) !conns;
  let pending c = (not c.dead) && Buffer.length c.out - c.out_off > 0 in
  let deadline = Unix.gettimeofday () +. 0.5 in
  while List.exists pending !conns && Unix.gettimeofday () < deadline do
    let writers =
      List.filter_map (fun c -> if pending c then Some c.fd else None) !conns
    in
    match Unix.select [] writers [] 0.05 with
    | _, ws, _ ->
        List.iter
          (fun c -> if pending c && List.mem c.fd ws then write_conn c)
          !conns
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (EBADF, _, _) -> ()
  done;
  List.iter (fun c -> close_quietly c.fd) !conns

let start ?(flush_interval = 1.0) ?(routes = fun _ _ -> None) addr =
  match Addr.sockaddr addr with
  | Error e -> Error e
  | Ok sa -> (
      (match addr with
      | Addr.Unix_socket p -> ( try Unix.unlink p with _ -> ())
      | Addr.Tcp _ -> ());
      let fd = Unix.socket ~cloexec:true (Addr.socket_domain addr) SOCK_STREAM 0 in
      match
        (match addr with
        | Addr.Tcp _ -> Unix.setsockopt fd SO_REUSEADDR true
        | Addr.Unix_socket _ -> ());
        Unix.bind fd sa;
        Unix.listen fd 16;
        Unix.set_nonblock fd
      with
      | exception Unix.Unix_error (err, _, _) ->
          close_quietly fd;
          Error
            (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string addr)
               (Unix.error_message err))
      | () ->
          let bound =
            match addr with
            | Addr.Tcp (host, 0) -> (
                match Unix.getsockname fd with
                | Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
                | _ -> addr)
            | _ -> addr
          in
          let wake_r, wake_w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock wake_r;
          Unix.set_nonblock wake_w;
          let t =
            { listen_fd = fd; bound; routes; wake_r; wake_w;
              stop_flag = Atomic.make false; dom = None; stopped = false }
          in
          Publish.set_wake (Some (fun () -> wake wake_w));
          Publish.arm ();
          t.dom <- Some (Domain.spawn (fun () -> serve t ~flush_interval));
          Ok t)

let addr t = t.bound

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Publish.disarm ();
    Publish.set_wake None;
    Atomic.set t.stop_flag true;
    wake t.wake_w;
    (match t.dom with Some d -> Domain.join d | None -> ());
    close_quietly t.listen_fd;
    close_quietly t.wake_r;
    close_quietly t.wake_w;
    match t.bound with
    | Addr.Unix_socket p -> ( try Unix.unlink p with _ -> ())
    | Addr.Tcp _ -> ()
  end
