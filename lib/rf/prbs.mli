(** Pseudo-random binary sequences from linear-feedback shift
    registers, used to build the paper's bit-stream-modulated RF
    drives. *)

val prbs7 : ?seed:int -> int -> bool array
(** [prbs7 n] is the first [n] bits of the PRBS-7 sequence
    ([x⁷ + x⁶ + 1], period 127). [seed] must be nonzero in its low
    7 bits (default 0x5A). *)
