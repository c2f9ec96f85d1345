(** Sweep checkpoint log: one self-describing JSONL record per
    completed job, written atomically, so a killed sweep resumes where
    it died and reproduces the uninterrupted run bitwise.

    Format: each line is one JSON object carrying the job identity
    ([key] — {!Key.hash} of label, engine, frequencies and
    discretization options), every field the sweep renderers print (so a cached job
    re-renders byte-for-byte, including the waveform fingerprint), the
    resilience report of a successful solve, and a [digest] hash of the
    record itself. Non-finite floats are emitted as the quoted strings
    ["nan"]/["inf"]/["-inf"] to stay inside JSON.

    Durability: {!append} rewrites the whole log to a temp file in the
    same directory and [Sys.rename]s it over the old one — on POSIX an
    atomic replacement, so the log on disk is always a prefix-complete,
    parseable set of records; a crash mid-write loses at most the
    record being added. Loading drops lines that fail to parse or whose
    digest does not match, so even a torn write (non-POSIX rename, NFS)
    degrades to re-running one job rather than poisoning the resume. *)

type record = {
  key : string;  (** 16-hex job identity, {!Key.hash} *)
  label : string;
  engine : string;  (** {!Backend.kind_name} *)
  f_fast : float;
  fd : float;
  status : string;  (** ["ok"], ["degraded"] or ["error"] *)
  converged : bool;
  newton : int;
  residual : float;
  h1 : float;
  thd : float;
  waveform_hash : string;
  attempts : int;
  wall_seconds : float;
  message : string;  (** failure message; [""] on success *)
  stage : string option;  (** ladder stage of an escaped exception *)
  backtrace : string option;  (** raw exception backtrace, when recorded *)
  report : string option;  (** resilience report, raw JSON *)
}

val of_outcome : Sweep.outcome -> record
(** Project a completed sweep job onto its checkpoint record — the
    single source both the live renderers and a resumed run print from,
    which is what makes resume output bitwise identical. [h1]/[thd]
    come from the result metrics ([h1_amplitude]/[baseband_h1] and
    [thd]); error outcomes carry NaN metrics and an empty waveform
    hash. *)

val waveform_hash : Backend.Result.waveform -> string
(** FNV-1a over the raw float bits of times and values — the same
    fingerprint the sweep CSV prints. *)

val rows_json : no_wall:bool -> record array -> string
(** The records as the JSON array [rfss sweep --format json] prints,
    one object per line: identity, status and attempts, then either
    the solve figures ([residual]/[h1]/[thd] via [%.6e]) or, on an
    error row, the message, stage and backtrace. [no_wall] omits
    [wall_seconds], which makes the output deterministic. *)

type t
(** An open checkpoint log (in-memory records + path). Internally
    mutexed: {!append} may be called concurrently from sweep worker
    domains. *)

val create : string -> t
(** Open [path], loading any valid records already present (resume). *)

val find : t -> key:string -> record option

val append : t -> record -> unit
(** Add one record and atomically rewrite the log. A record whose key
    is already present replaces the old one. *)
