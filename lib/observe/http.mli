(** Minimal HTTP/1.0 subset shared by the introspection server, the
    solve service, their clients, and the tests.

    Deliberately tiny: GET/POST request lines, header fields,
    [Content-Length]-framed request bodies with a hard size cap,
    fixed-length responses with [Content-Length], and header-only
    responses for streams that are delimited by connection close (the
    HTTP/1.0 way — no chunked transfer coding, no keep-alive). Query
    strings are split on [&]/[=] without percent-decoding; the
    endpoints only take integer parameters. *)

type request = {
  meth : string;  (** uppercased, e.g. ["GET"] *)
  target : string;  (** raw request-target, query included *)
  path : string;  (** target up to the first [?] *)
  query : (string * string) list;  (** in target order, not decoded *)
  headers : (string * string) list;  (** names lowercased *)
}

val header_end : string -> int option
(** Offset just past the blank line terminating the header block
    ([\r\n\r\n] or [\n\n]), or [None] while the request is still
    incomplete. *)

val parse_request : string -> (request, string) result
(** Parse a complete header block (body bytes after it are not
    consumed here — use {!parse_framed} for body framing). *)

val query_int : request -> string -> int option
(** First integer-valued occurrence of the query parameter. *)

val max_header_bytes : int
(** Hard cap on the header block: 16 KiB. *)

val max_body_bytes : int
(** Default hard cap on a request body: 1 MiB. *)

type framed =
  | Incomplete  (** keep reading — the request is not fully buffered *)
  | Too_large
      (** header block over {!max_header_bytes} or declared body over
          the cap; answer 413 and close *)
  | Malformed of string  (** unparseable; answer 400 and close *)
  | Complete of request * string  (** parsed request and its body *)

val parse_framed : ?max_body:int -> string -> framed
(** Incremental request framing over the bytes read so far: headers
    first, then [Content-Length] body bytes (absent length means an
    empty body, the GET case). [max_body] defaults to
    {!max_body_bytes}. *)

val response :
  ?status:int ->
  ?content_type:string ->
  ?extra_headers:(string * string) list ->
  string ->
  string
(** Full HTTP/1.0 response (status line, [Content-Type],
    [Content-Length], [extra_headers], [Connection: close], blank
    line, body). [status] defaults to [200], [content_type] to
    [text/plain]. *)

val method_not_allowed : allow:string list -> string
(** 405 response carrying an [Allow] header listing the methods the
    path does serve. *)

val stream_header : ?content_type:string -> unit -> string
(** Status line and headers for a close-delimited stream: no
    [Content-Length]; the body is whatever follows until the server
    closes the connection. *)

val parse_response :
  string -> (int * (string * string) list * string, string) result
(** Split a raw response into (status code, lowercased headers, body). *)
