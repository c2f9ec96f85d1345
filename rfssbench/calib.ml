(* Host-speed calibration.

   The hosts this benchmark runs on are shared, and their speed drifts
   by more than any bound worth having: on a 2-vCPU VM, the same
   paper-mixer solve took 0.08 s in one minute and 0.15 s in the next,
   with no steal time reported and CPU time drifting with wall time,
   so the slowdown is invisible from inside the guest and no statistic
   of the program's own timings can remove it.

   A probe ([work]) is a fixed piece of computation that shares no
   code with the program: a small dense matrix product, a dense LU
   factorization and substitutions, a CSR-shaped sparse product, a
   random gather over 2 MB, and short-lived allocation — the kinds of
   work a solve does.
   The harness runs it right after every timed operation. The
   operation's wall time over the probe's moves with the program, and
   much less with the host (README.md has the numbers).

   End-to-end times are that ratio times [reference_s], the probe's
   time on a quiet host: seconds on a host where a probe takes
   [reference_s]. A change to the program moves the ratio; a change of
   host speed moves the operation and the probe together. *)

(* A 48x48 matrix product, three times: floating point in L1. *)
let matmul =
  let n = 48 in
  let a = Array.init (n * n) (fun i -> float_of_int (i mod 7) *. 0.1) in
  let b = Array.init (n * n) (fun i -> float_of_int (i mod 5) *. 0.2) in
  let c = Array.make (n * n) 0.0 in
  fun () ->
    for _ = 1 to 3 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let s = ref 0.0 in
          for k = 0 to n - 1 do
            s := !s +. (a.((i * n) + k) *. b.((k * n) + j))
          done;
          c.((i * n) + j) <- !s
        done
      done
    done

(* One pass of a strided gather over 1 MB of floats through 1 MB of
   indices: the L2 cache and memory. *)
let gather =
  let n = 1 lsl 17 in
  let a = Array.init n float_of_int in
  let idx = Array.init n (fun i -> (i * 7919) land (n - 1)) in
  fun () ->
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. a.(idx.(i))
    done;
    ignore (Sys.opaque_identity !s)

(* 100 000 boxed floats in short lists: the minor heap. *)
let allocate () =
  let l = ref [] in
  for i = 1 to 100_000 do
    l := float_of_int i :: !l;
    if i mod 1000 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l)

(* Twice: factor a diagonally dominant 40x40 block in place, run 40
   forward substitutions with it, and multiply an 8-per-row sparse
   matrix of 8192 rows by a vector. *)
let factor_and_multiply =
  let n = 40 in
  let a0 =
    Array.init (n * n) (fun k ->
        let i = k / n and j = k mod n in
        if i = j then 4.0 +. float_of_int i else 1.0 /. float_of_int (1 + abs (i - j)))
  in
  let a = Array.make (n * n) 0.0 and x = Array.make n 1.0 in
  let rows = 1 lsl 13 and per_row = 8 in
  let cols = Array.init (rows * per_row) (fun k -> (k * 613) mod rows) in
  let vals = Array.init (rows * per_row) (fun k -> float_of_int (k mod 11)) in
  let v = Array.make rows 1.0 and y = Array.make rows 0.0 in
  fun () ->
    for _ = 1 to 2 do
      Array.blit a0 0 a 0 (n * n);
      for k = 0 to n - 1 do
        let p = a.((k * n) + k) in
        for i = k + 1 to n - 1 do
          let l = a.((i * n) + k) /. p in
          a.((i * n) + k) <- l;
          for j = k + 1 to n - 1 do
            a.((i * n) + j) <- a.((i * n) + j) -. (l *. a.((k * n) + j))
          done
        done
      done;
      for _ = 1 to n do
        for i = 1 to n - 1 do
          let s = ref x.(i) in
          for j = 0 to i - 1 do
            s := !s -. (a.((i * n) + j) *. x.(j))
          done;
          x.(i) <- !s *. 1e-3
        done
      done;
      for r = 0 to rows - 1 do
        let s = ref 0.0 in
        for k = r * per_row to (r * per_row) + per_row - 1 do
          s := !s +. (vals.(k) *. v.(cols.(k)))
        done;
        y.(r) <- !s
      done
    done

(* A probe: four rounds of the kernels. The first round pays for
   refilling the caches the operation before it evicted, and a longer
   probe samples more of the host's state. *)
let work () =
  for _ = 1 to 4 do
    matmul ();
    gather ();
    allocate ();
    factor_and_multiply ()
  done

(* The median time of a probe on the 2-vCPU Xeon VM the benchmark was
   written on, in a quiet spell. *)
let reference_s = 6.0e-3
