(** Bounded LRU result cache, keyed by canonical {!Engine.Key} hashes.

    Values are the exact bytes of the ["result"] response line: hits
    replay those bytes verbatim, which is what makes an identical
    resubmission byte-for-byte comparable to its first response.
    Thread-safe — probed from the serving domain, filled from worker
    domains. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val find : t -> string -> string option
(** Lookup; a hit promotes the entry to most-recently-used. Every call
    counts toward {!stats} hits or misses. *)

val add : t -> string -> string -> unit
(** [add t key payload] inserts (or refreshes) the entry as MRU and
    evicts least-recently-used entries beyond the capacity. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats

val keys : t -> string list
(** Current keys, most-recently-used first (for tests and status). *)
