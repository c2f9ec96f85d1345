let is_power_of_two n = n > 0 && n land (n - 1) = 0

let pi = 4.0 *. atan 1.0

(* The kernel works in place on split real/imaginary float arrays,
   which OCaml stores unboxed: a butterfly allocates nothing. *)

(* Forward twiddles of a length-[n] radix-2 transform:
   [exp(−2πik/n)] for [k < n/2], each from its own index, so no
   rounding accumulates along a stage. *)
let twiddles n =
  let half = n / 2 in
  let wr = Array.create_float half and wi = Array.create_float half in
  for k = 0 to half - 1 do
    let angle = -2.0 *. pi *. float_of_int k /. float_of_int n in
    wr.(k) <- cos angle;
    wi.(k) <- sin angle
  done;
  (wr, wi)

(* In-place iterative radix-2 Cooley–Tukey on [(re, im)], whose length
   is that of the table [(wr, wi)] from {!twiddles}; [sign] is −1 for
   the forward transform and +1 for the (unscaled) inverse, which
   conjugates the table. *)
let radix2_ip re im (wr, wi) sign =
  let n = Array.length re in
  (* Bit-reversal permutation. *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let t = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- t;
      let t = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- t
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let conj = -.sign in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let stride = n / !len in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        let a = !i + k in
        let b = a + half in
        let cr = Array.unsafe_get wr (k * stride)
        and ci = conj *. Array.unsafe_get wi (k * stride) in
        let xr = Array.unsafe_get re b and xi = Array.unsafe_get im b in
        let vr = (cr *. xr) -. (ci *. xi) and vi = (cr *. xi) +. (ci *. xr) in
        let ur = Array.unsafe_get re a and ui = Array.unsafe_get im a in
        Array.unsafe_set re a (ur +. vr);
        Array.unsafe_set im a (ui +. vi);
        Array.unsafe_set re b (ur -. vr);
        Array.unsafe_set im b (ui -. vi)
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

(* What a length-n transform of exponent sign [sign] needs besides its
   data: the radix-2 twiddle table, or Bluestein's chirp-z plan, which
   writes the DFT as a convolution of length 2n-1 evaluated with
   power-of-two FFTs of length [m] that share one twiddle [table]:
   the chirp [(chr, chi)] and the FFT [(fr, fi)] of the chirp filter. *)
type chirp = {
  m : int;
  table : float array * float array;
  chr : float array;
  chi : float array;
  fr : float array;
  fi : float array;
}

type plan = Radix2 of (float array * float array) | Bluestein of chirp

let bluestein_plan n sign =
  let m =
    let rec next p = if p >= (2 * n) - 1 then p else next (2 * p) in
    next 1
  in
  let chr = Array.create_float n and chi = Array.create_float n in
  for k = 0 to n - 1 do
    let phase = sign *. pi *. float_of_int (k * k mod (2 * n)) /. float_of_int n in
    chr.(k) <- cos phase;
    chi.(k) <- sin phase
  done;
  let fr = Array.make m 0.0 and fi = Array.make m 0.0 in
  fr.(0) <- chr.(0);
  fi.(0) <- -.chi.(0);
  for k = 1 to n - 1 do
    fr.(k) <- chr.(k);
    fi.(k) <- -.chi.(k);
    fr.(m - k) <- chr.(k);
    fi.(m - k) <- -.chi.(k)
  done;
  let table = twiddles m in
  radix2_ip fr fi table (-1.0);
  Bluestein { m; table; chr; chi; fr; fi }

let plan_floats = function
  | Radix2 (wr, wi) -> Array.length wr + Array.length wi
  | Bluestein { m; chr; chi; _ } -> m + (2 * m) + Array.length chr + Array.length chi

(* Plans by (length, sign), per domain, most recently used first, at
   most [cache_floats] floats (16 MB) in all: a shooting job's metrics
   transform one odd length per period, and a sweep repeats it. *)
let cache_floats = 1 lsl 21

let plans : ((int * float) * plan) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let plan n sign =
  let cache = Domain.DLS.get plans in
  match List.assoc_opt (n, sign) !cache with
  | Some p ->
      cache := ((n, sign), p) :: List.remove_assoc (n, sign) !cache;
      p
  | None ->
      let p = if is_power_of_two n then Radix2 (twiddles n) else bluestein_plan n sign in
      let rec keep budget = function
        | [] -> []
        | ((_, q) as entry) :: rest ->
            let budget = budget - plan_floats q in
            if budget < 0 then [] else entry :: keep budget rest
      in
      if plan_floats p <= cache_floats then
        cache := ((n, sign), p) :: keep (cache_floats - plan_floats p) !cache;
      p

let bluestein re im { m; table; chr; chi; fr; fi } =
  let n = Array.length re in
  let ar = Array.make m 0.0 and ai = Array.make m 0.0 in
  for k = 0 to n - 1 do
    ar.(k) <- (re.(k) *. chr.(k)) -. (im.(k) *. chi.(k));
    ai.(k) <- (re.(k) *. chi.(k)) +. (im.(k) *. chr.(k))
  done;
  radix2_ip ar ai table (-1.0);
  for k = 0 to m - 1 do
    let xr = ar.(k) and xi = ai.(k) in
    ar.(k) <- (xr *. fr.(k)) -. (xi *. fi.(k));
    ai.(k) <- (xr *. fi.(k)) +. (xi *. fr.(k))
  done;
  radix2_ip ar ai table 1.0;
  let scale = 1.0 /. float_of_int m in
  let yr = Array.create_float n and yi = Array.create_float n in
  for k = 0 to n - 1 do
    let xr = ar.(k) *. scale and xi = ai.(k) *. scale in
    yr.(k) <- (chr.(k) *. xr) -. (chi.(k) *. xi);
    yi.(k) <- (chr.(k) *. xi) +. (chi.(k) *. xr)
  done;
  (yr, yi)

(* The length-n DFT of [(re, im)] with exponent sign [sign], unscaled.
   Consumes its arguments: a power-of-two length is transformed in
   place. *)
let transform re im sign =
  let n = Array.length re in
  Telemetry.count "fft.transforms";
  if n <= 1 then (re, im)
  else
    match plan n sign with
    | Radix2 table ->
        radix2_ip re im table sign;
        (re, im)
    | Bluestein chirp -> bluestein re im chirp

let split (x : Linalg.Cvec.t) =
  (Array.map (fun (z : Complex.t) -> z.re) x, Array.map (fun (z : Complex.t) -> z.im) x)

let join (re, im) : Linalg.Cvec.t =
  Array.init (Array.length re) (fun k -> { Complex.re = re.(k); im = im.(k) })

let fft x =
  let re, im = split x in
  join (transform re im (-1.0))

let rfft x = join (transform (Array.copy x) (Array.make (Array.length x) 0.0) (-1.0))

let real_harmonics x =
  let n = Array.length x in
  if n = 0 then [||]
  else begin
    let re, im = transform (Array.copy x) (Array.make n 0.0) (-1.0) in
    (* A harmonic k of 0 < k < n/2 is X_k and its mirror X_{n−k}; for
       even n the bin n/2 is its own mirror, so its cosine amplitude is
       |X|/n, as the mean's is. *)
    (* Filled in place from a static pair: [Array.init] would build the
       array from the young first pair, which forces a minor collection
       once there are more than 256 harmonics (OCaml 5.1). *)
    let h = Array.make ((n / 2) + 1) (0.0, 0.0) in
    h.(0) <- (re.(0) /. float_of_int n, 0.0);
    for k = 1 to n / 2 do
      let z = { Complex.re = re.(k); im = im.(k) } in
      let bins = if 2 * k = n then 1.0 else 2.0 in
      h.(k) <- (bins *. Complex.norm z /. float_of_int n, Complex.arg z)
    done;
    h
  end

let amplitude_at x k =
  let h = real_harmonics x in
  if k < 0 || k >= Array.length h then invalid_arg "Fft.amplitude_at: harmonic out of range";
  if k = 0 then Float.abs (fst h.(0)) else fst h.(k)

let at_roundoff_floor ~peak fundamental = fundamental <= 1e-12 *. peak

let thd ?max_harmonic ~peak harmonics =
  let last = Array.length harmonics - 1 in
  if last < 1 then 0.0
  else begin
    let kmax = match max_harmonic with Some k -> min k last | None -> last in
    let fundamental = fst harmonics.(1) in
    let s = ref 0.0 in
    for k = 2 to kmax do
      let a = fst harmonics.(k) in
      s := !s +. (a *. a)
    done;
    if at_roundoff_floor ~peak fundamental then infinity else sqrt !s /. fundamental
  end
