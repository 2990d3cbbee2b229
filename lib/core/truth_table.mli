(** Truth-table IR: arbitrary combinational functions as tables.

    The simplest controller building block (Section II of the paper): a
    function with [addr_bits] inputs and [width] outputs stored as a table
    of [depth] entries. Two hardware realizations:

    - {!to_flexible_rtl}: the table lives in a *configuration memory*
      (programmable bits + read mux tree) — the reconfigurable design.
      Binding it with {!Synth.Partial_eval.bind_tables} and
      {!config_binding} gives the fixed (ROM) design.
    - {!to_sop_rtl}: the "direct" implementation the paper compares against:
      one sum-of-products assignment per output bit.

    Addresses beyond [depth] (when the depth is not a power of two) read
    zero. *)

type t = private {
  name : string;
  width : int;
  entries : Bitvec.t array;
}

val make : name:string -> width:int -> Bitvec.t array -> t
(** @raise Invalid_argument on empty contents or width mismatch. *)

val of_fun : name:string -> width:int -> depth:int -> (int -> Bitvec.t) -> t

val depth : t -> int
val addr_bits : t -> int

val eval : t -> int -> Bitvec.t
(** [eval t a] — entry [a], or zero beyond the depth. *)

val to_flexible_rtl : t -> Rtl.Design.t
(** Ports: input [addr], output [data]. The table is a [Config] memory named
    after the truth table; bind it with {!config_binding} at partial
    evaluation time. *)

val config_binding : t -> string * Bitvec.t array
(** The (table name, contents) pair for {!Synth.Partial_eval.bind_tables}. *)

val to_sop_rtl : t -> Rtl.Design.t
(** Direct style: canonical sum-of-products per output bit (the synthesis
    tool is expected to minimize it, as in the paper). *)
