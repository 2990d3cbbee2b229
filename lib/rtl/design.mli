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

type t = private {
  name : string;
  inputs : Signal.t list;
  outputs : (Signal.t * Expr.t) list;
  nets : (Signal.t * Expr.t) list;
  regs : reg list;
  tables : table list;
  annots : Annot.t list;
}

val make :
  name:string ->
  inputs:Signal.t list ->
  outputs:(Signal.t * Expr.t) list ->
  nets:(Signal.t * Expr.t) list ->
  regs:reg list ->
  tables:table list ->
  annots:Annot.t list ->
  t
(** The one design check, and the only way to build a [t]: every name is
    a {!Signal.is_atom}; signal, table and output names are each unique
    (outputs have their own namespace); every reference is defined at its
    width, and drivers, table reads, ROM contents and annotations match
    their declarations; nets have no combinational cycle.
    @raise Invalid_argument with a descriptive message on violation. *)

val find_table : t -> string -> table
(** @raise Not_found *)

val find_reg : t -> string -> reg
(** @raise Not_found *)

val net_order : t -> (Signal.t * Expr.t) list
(** Nets in topological (driver-before-use) order. *)

val with_rom_contents : t -> string -> Bitvec.t array -> t
(** Replace the storage of the named table (typically [Config] → [Rom]),
    checking the contents with {!make}'s ROM-geometry rule.
    @raise Invalid_argument if geometry does not match, [Not_found] if there
    is no such table. *)

val config_bit_count : t -> int
(** Total configuration storage bits ([Config] tables plus [is_config]
    registers). *)

val add_annots : t -> Annot.t list -> t
(** Appends annotations, checking each with {!make}'s annotation rule.
    @raise Invalid_argument if a target is unknown or of another width. *)

val stats : t -> string
(** One-line human-readable summary. *)
