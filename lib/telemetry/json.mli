(** The repo's one JSON codec: a tree, a parser, and the emitters every
    sink, protocol, report and checkpoint writes through.

    The repo carries no external JSON dependency. Hand-formatted
    outputs (trace sinks, reports, [rfss.jobs/1] lines, checkpoint
    records) build their text from {!quote} and {!float}, so each keeps
    its own float precision while sharing one escaping and one
    non-finite convention; tree-shaped outputs use {!to_string}.

    The parser reads the JSON this repo produces and everything
    {!quote} can write: objects, arrays, strings with every JSON escape
    ([\uXXXX] decodes to UTF-8, surrogate pairs combined), numbers,
    booleans and [null]. Nesting is capped at a fixed depth so a
    hostile body fails fast instead of recursing once per byte. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input, trailing garbage, a bad or
    unpaired [\u] escape, or nesting deeper than 512 arrays/objects. *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] otherwise. *)

val path : string list -> t -> t option
(** [path ["a"; "b"] j] is [member "b"] of [member "a"] of [j]. *)

val num : t -> float option

val str : t -> string option

val bool : t -> bool option

val to_string : t -> string
(** Compact emission: integral floats below 1e15 via [%.0f], other
    finite floats via [%.17g], NaN as [null] and ±infinity as
    [±1e999]; strings via {!quote}. *)

val quote : string -> string
(** The quoted, escaped form of a string, quotes included: the double
    quote, backslash, newline, tab and carriage return as
    two-character escapes, other control bytes as [\u00XX], every
    other byte verbatim. [parse] reads it back to the same bytes. *)

val float : (float -> string, unit, string) format -> float -> string
(** [float fmt v] is [Printf.sprintf fmt v] for a finite [v], and the
    quoted string ["nan"], ["inf"] or ["-inf"] otherwise — the
    non-finite convention of every hand-formatted output. *)
