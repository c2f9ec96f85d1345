(** FNV-1a 64 over bytes: the one hash primitive shared by
    {!Engine.Key}'s job key, {!Engine.Checkpoint}'s record digest and
    waveform fingerprint, and {!Resilience.Faultinject}'s deterministic
    PRNG. Every digest these produce is pinned by tests, so the
    arithmetic here must not change. *)

val basis : int64
(** The FNV-1a 64 offset basis, [0xcbf29ce484222325]. *)

val mix_byte : int64 -> int -> int64
(** [(h xor byte) * prime]; [byte] is used as given, not masked. *)

val mix_bytes : int64 -> string -> int64
(** Mixes every byte, with no terminator. *)

val mix_string : int64 -> string -> int64
(** {!mix_bytes}, then a [0xFF] terminator so [("ab","c")] and
    [("a","bc")] hash differently. *)

val mix_float : int64 -> float -> int64
(** Mixes the full 8-byte IEEE-754 image, little-endian byte order. *)

val mix_int : int64 -> int -> int64
(** {!mix_float} of the integer's float value. *)

val hex : int64 -> string
(** [%016Lx] rendering of the accumulated hash. *)
