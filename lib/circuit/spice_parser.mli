(** Parser for a practical subset of SPICE netlists, so decks can be
    fed to the simulator without writing OCaml.

    Supported elements (one per line, [*] comments, [+] continuations,
    [;] trailing comments, case-insensitive):

    - [Rxxx n+ n- value]
    - [Cxxx n+ n- value]
    - [Lxxx n+ n- value]
    - [Vxxx n+ n- [DC v] [SIN(voff vamp freq)] [PULSE(v1 v2 td tr tf pw per)]]
    - [Ixxx n+ n- …] (same source syntax)
    - [Dxxx a c [model]]
    - [Mxxx d g s [b] model] (bulk, when present, is ignored — the
      level-1 model ties it to the source)
    - [Qxxx c b e model]
    - [Gxxx out+ out- in+ in- gm] (VCCS)
    - [.model name D(is=… n=… cjo=…)]
    - [.model name NMOS(vto=… kp=… lambda=… cgs=… cgd=…)] (also PMOS)
    - [.model name NPN(is=… bf=… br=… cbe=… cbc=…)] (also PNP)
    - [.end]

    Engineering suffixes are understood: f p n u m k meg g t.
    Unknown dot-directives are skipped and reported as warnings. *)

exception Parse_error of { line : int; message : string }

type deck = {
  title : string;
  netlist : Netlist.t;
  warnings : string list;  (** skipped directives etc. *)
}

val parse_string : string -> deck
(** @raise Parse_error on malformed input. Per SPICE convention the
    first line is always the title; start the deck with a blank or
    comment line if no title is wanted. *)
