(** Fast Fourier transforms.

    Radix-2 iterative Cooley–Tukey for power-of-two lengths and
    Bluestein's chirp-z algorithm for arbitrary lengths. Forward
    transform uses the engineering sign convention
    [X_k = Σ_n x_n exp(−2πi kn/N)].

    The kernel runs in place on split real/imaginary float arrays
    (unboxed, so a butterfly allocates nothing), and every twiddle is
    computed from its own index rather than by a running product.
    Each call counts one [fft.transforms]; a result's metrics should
    come from one {!real_harmonics} call, with {!thd} reading the
    same array. What a length needs besides its data (twiddles, and
    Bluestein's chirp and chirp-filter transform) is kept per domain,
    most recently used first, up to 16 MB. *)

val fft : Linalg.Cvec.t -> Linalg.Cvec.t
(** Forward transform of any length (Bluestein fallback). *)

val rfft : Linalg.Vec.t -> Linalg.Cvec.t
(** Forward transform of a real signal (full spectrum returned). *)

val real_harmonics : Linalg.Vec.t -> (float * float) array
(** [real_harmonics x] returns [(dc_or_amplitude, phase)] per harmonic
    [k = 0 .. n/2]: index 0 is the mean; index [k>0] holds the amplitude
    and phase of the cosine component at harmonic [k], the amplitude
    [2|X_k|/n], or [|X_k|/n] for the Nyquist harmonic [k = n/2] of an
    even [n] (its bin has no mirror). *)

val amplitude_at : Linalg.Vec.t -> int -> float
(** [amplitude_at x k] is the amplitude of harmonic [k] of the periodic
    sample vector [x] ([k = 0] gives the mean's absolute value). *)

val thd : ?max_harmonic:int -> peak:float -> (float * float) array -> float
(** [thd ~peak h] is the total harmonic distortion
    [sqrt(Σ_{k=2..kmax} A_k²) / A_1] of a {!real_harmonics} array [h];
    [kmax] is [max_harmonic] capped at the last harmonic (default: the
    last). [peak] is [max|x|] of the analysed samples: a fundamental of
    at most [1e-12·peak] is roundoff, and gives [infinity] as an exact
    zero does. [0.0] when [h] has fewer than two entries. *)

val at_roundoff_floor : peak:float -> float -> bool
(** [at_roundoff_floor ~peak a]: a fundamental amplitude [a] of samples
    with [max|x| = peak] is roundoff — the case in which {!thd} gives
    [infinity]. *)
