(** The [rfss.jobs/1] wire protocol: a JSON job request in a POST
    body, a close-delimited JSONL response stream.

    Response stream, in order:
    + an ["accepted"] line — job id, canonical {!Engine.Key} and the
      cache disposition (["hit"]/["miss"]);
    + a ["result"] line (or an ["error"] line when the request could
      not be solved) — outcome, iteration counts, RF metrics and the
      waveform CSV;
    + a ["done"] line, after which the server closes the connection.

    The cache flag lives on the ["accepted"] line and {e only} there:
    a cache hit replays the stored ["result"] line byte for byte, so
    identical requests are verifiable by comparing result lines. *)

val version : string
(** ["rfss.jobs/1"] — the value of the ["v"] field in every request
    and every response line. *)

type job = {
  fixture : Catalog.t;
  engine : Engine.kind;
  f_fast : float;
  fd : float;
  options : Engine.Options.t;
  wall_seconds : float option;  (** per-request budget slice *)
  max_newton_budget : int option;
  warm : bool;  (** may seed from / contribute to the warm-start store *)
}

val key_of_job : job -> string
(** The job's canonical {!Engine.Key.hash}. *)

type error =
  | Invalid_request of string
      (** malformed JSON, unsupported version, unknown circuit or
          engine, tones rejected by {!Catalog.resolve}, malformed
          budget *)
  | Bad_option of { name : string; reason : string }
      (** an ["options"] field that is unknown, of the wrong type or out
          of range — e.g. [n1]/[n2] not an integer >= 2 *)

val error_message : error -> string
(** A message suitable for the 400 body. *)

val parse_job : string -> (job, error) result
(** Parse and validate a request body:
    [{"v":"rfss.jobs/1","circuit":NAME,"engine":NAME?,"f_fast":HZ?,
    "fd":HZ?,"options":{...}?,"budget":{"wall_seconds":S?,
    "max_newton":N?}?,"warm":BOOL?}]. Integer options must be whole
    numbers (never truncated), at least 1, and at least 2 for the grid
    sizes [n1]/[n2]. *)

val accepted_line : id:int -> key:string -> cache_hit:bool -> string

val error_line : string -> string

val done_line : id:int -> string

val result_line :
  key:string -> warm_started:bool -> job -> Engine.Result.t -> string
(** The solve outcome as one JSON line, embedding {!waveform_csv} as
    an escaped string. Deterministic given the result record. *)

val waveform_csv :
  output_node:string -> Engine.Result.waveform -> string
(** Exactly the CSV the CLI prints for a single solve ([t,v(node)]
    header, [%.9e,%.6e] rows) so served and direct outputs compare
    byte for byte. *)
