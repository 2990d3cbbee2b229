(** Designs: the RTL container.

    A design is a set of input ports, named internal nets with combinational
    drivers, registers, tables and output ports. A global implicit [clk] and
    [rst] exist (registers with a reset style use [rst]).

    Tables come in two kinds:
    - {!Rom}: contents fixed at elaboration time; synthesis folds them into
      logic.
    - {!Config}: a *configuration memory* — contents are programmable after
      fabrication. In the flexible implementation every bit costs a
      configuration flip-flop, and reads cost a mux tree. Partial evaluation
      ({!Synth.Partial_eval} downstream) replaces a [Config] table by a [Rom]
      once the microcode/table bits are known. *)

type reset_kind = No_reset | Sync_reset | Async_reset

val reset_kind_to_string : reset_kind -> string
(** ["none"], ["sync"] or ["async"]: the one spelling of a reset kind in
    serialized designs, Liberty files and engine cache keys. *)

val reset_kind_of_string : string -> reset_kind option
(** Inverse of {!reset_kind_to_string}; [None] on any other string. *)

type reg = {
  q : Signal.t;
  d : Expr.t;
  reset : reset_kind;
  init : Bitvec.t;  (** reset / power-on value; also the simulator's start value *)
  enable : Expr.t option;
  is_config : bool;  (** configuration storage, not functional state *)
}

type storage =
  | Rom of Bitvec.t array
  | Config

type table = {
  tname : string;
  twidth : int;
  depth : int;  (** number of entries; the address width is [addr_bits] *)
  storage : storage;
}

val addr_bits : table -> int
(** ceil(log2 depth), minimum 1. *)

type t = {
  name : string;
  inputs : Signal.t list;
  outputs : (Signal.t * Expr.t) list;
  nets : (Signal.t * Expr.t) list;
  regs : reg list;
  tables : table list;
  annots : Annot.t list;
}

val validate : t -> unit
(** Checks: unique names across inputs/nets/registers; all referenced signals
    defined; net/output/register driver widths match; table reads reference
    declared tables with the right address width; ROM contents match the
    declared geometry; no combinational cycles through nets; annotation
    targets exist with matching width.
    @raise Invalid_argument with a descriptive message on violation. *)

val find_table : t -> string -> table
(** @raise Not_found *)

val find_reg : t -> string -> reg
(** @raise Not_found *)

val net_order : t -> (Signal.t * Expr.t) list
(** Nets in topological (driver-before-use) order.
    @raise Invalid_argument on a combinational cycle. *)

val with_rom_contents : t -> string -> Bitvec.t array -> t
(** Replace the storage of the named table (typically [Config] → [Rom]).
    @raise Invalid_argument if geometry does not match, [Not_found] if there
    is no such table. *)

val config_bit_count : t -> int
(** Total configuration storage bits ([Config] tables plus [is_config]
    registers). *)

val add_annots : t -> Annot.t list -> t

val stats : t -> string
(** One-line human-readable summary. *)
