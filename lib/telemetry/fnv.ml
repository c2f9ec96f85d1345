(* FNV-1a 64: the one hash behind the job key, the checkpoint digests
   and the fault-injection PRNG. *)

let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let mix_byte h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) prime

let mix_bytes h s =
  let h = ref h in
  String.iter (fun c -> h := mix_byte !h (Char.code c)) s;
  !h

(* Terminator so ("ab","c") and ("a","bc") hash differently. *)
let mix_string h s = mix_byte (mix_bytes h s) 0xFF

let mix_float h v =
  let bits = Int64.bits_of_float v in
  let h = ref h in
  for k = 0 to 7 do
    h :=
      mix_byte !h
        (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * k)) 0xFFL))
  done;
  !h

let mix_int h i = mix_float h (float_of_int i)

let hex h = Printf.sprintf "%016Lx" h
