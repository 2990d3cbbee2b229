(** Microcode IR: horizontal microinstruction formats, microprograms and
    their sequencer hardware (Section II-B, Fig. 3).

    A format is a list of named control fields (horizontal microcode:
    independent subfields driving different units, possibly one-hot).
    Sequencing is the paper's: the expected transition is the increment of
    the microprogram counter; jumps are flagged in the word, and dispatches
    go through dedicated (small) dispatch tables indexed by an external
    opcode.

    Microcode word layout (LSB first): control fields in format order, then
    a 2-bit sequencing mode (0 = next, 1 = jump, 2 = dispatch), then the
    target field (jump address, or dispatch-table index).

    The generated hardware reads the word from a configuration memory;
    binding it with {!Synth.Partial_eval.bind_tables} and {!config_bindings}
    gives the fixed (ROM) sequencer. With [registered_outputs] every control
    field goes through a pipeline register before its output port — which is
    where the paper's post-flop state-propagation problem (and the value of
    generator annotations, {!Generator.program_manual_annotations}) shows
    up. *)

type field = { fname : string; fwidth : int; onehot : bool }

type seqctl =
  | Next
  | Jump of int          (** absolute microprogram address *)
  | Dispatch of int      (** dispatch-table index *)

type uop = { ctl : (string * int) list; seq : seqctl }
(** Control fields not listed default to zero. *)

type program = {
  pname : string;
  format : field list;
  code : uop array;
  dispatch : (string * int array) list;
      (** table name → target address per opcode value (length
          [2^opcode_bits]) *)
  opcode_bits : int;
  entry : int;
}

val make :
  name:string ->
  format:field list ->
  ?dispatch:(string * int array) list ->
  ?opcode_bits:int ->
  ?entry:int ->
  uop array ->
  program
(** Validates: unique field names, field values in range, jump/dispatch
    targets in range, dispatch tables sized [2^opcode_bits]. [opcode_bits]
    defaults to 1; [entry] to 0. *)

val word_width : program -> int
val upc_bits : program -> int
val depth : program -> int

val encode_word : program -> int -> Bitvec.t
(** The memory word at an address (zero beyond the code). *)

(** {1 Reference semantics} *)

val step : program -> upc:int -> op:int -> (string * int) list * int
(** Control field values issued at [upc], and the next microprogram counter.
    Addresses beyond the code read the all-zero word and increment wraps
    modulo [2^upc_bits] — exactly the generated hardware's behaviour. *)

val run : program -> ops:int list -> (string * int) list list
(** Field-value trace from [entry] under an opcode stream. *)

(** {1 Generator knowledge} *)

val reachable_addrs : program -> int list
(** Microprogram addresses reachable from [entry], ascending. *)

val field_value_set : program -> string -> int list
(** Distinct values the field takes across reachable microinstructions
    (always includes 0, the pipeline registers' reset value). *)

(** {1 Hardware generation}

    Two microcode store organizations, matching the paper's Section II-B
    horizontal/vertical discussion:
    - [`Horizontal] (default): every microinstruction stores its control
      fields directly — wide words, no decode logic;
    - [`Vertical]: the microcode memory stores a compact index into a
      separate decode memory holding the program's distinct control words —
      "efficiently encoded but difficult to read", and the decode adds a
      level of table lookup. Sequencing (mode/target) stays horizontal in
      both.

    The two organizations are behaviourally identical; the geometry of the
    vertical one (index width, decode depth) is derived from the program
    that acts as geometry donor. *)

type style = [ `Horizontal | `Vertical ]

val distinct_control_words : program -> int
(** Distinct control-field combinations across the whole memory (including
    the all-zero padding word). *)

val to_rtl : ?style:style -> ?registered_outputs:bool -> program -> Rtl.Design.t
(** Ports: input [op] ([opcode_bits] wide); one output per control field,
    named after it. The microcode memory, decode memory and dispatch tables
    are configuration memories. *)

val config_bindings : ?style:style -> program -> (string * Bitvec.t array) list
(** Contents of the microcode memory, decode memory (vertical only) and
    dispatch tables, for partial evaluation of {!to_rtl}. Must use the same
    [style] as {!to_rtl}. *)
