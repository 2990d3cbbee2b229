(** Cycle-accurate RTL interpreter.

    Reference semantics for designs: used by tests to check that lowering,
    partial evaluation and every optimization preserve behaviour, and by the
    examples to actually run controllers.

    Out-of-range table reads (possible when the depth is not a power of two)
    return zero; generators in this project avoid them, and the lowering makes
    the same choice so simulator and netlist agree.

    Every input, register and net has a slot, and every expression is
    compiled against those slots once, in {!create}. The nets are evaluated
    once per cycle, on the first {!peek} or {!step} that needs them, and
    stay cached until {!set_input}, {!poke_reg}, {!step} or {!reset}. A
    cycle whose evaluation raised is not cached. *)

type state

val create : ?config:(string * Bitvec.t array) list -> Design.t -> state
(** Fresh state: registers hold their [init] values, inputs are zero.
    [config] binds the contents of [Config] tables; reading an unbound
    configuration table raises [Invalid_argument].
    @raise Invalid_argument if bound contents do not match their table's
    geometry ({!Design.with_rom_contents}). *)

val set_input : state -> string -> Bitvec.t -> unit
(** @raise Invalid_argument on unknown port or wrong width. *)

val peek_reg : state -> string -> Bitvec.t
(** Current stored value of a register, without combinational evaluation.
    @raise Invalid_argument on unknown register. *)

val poke_reg : state -> string -> Bitvec.t -> unit
(** Overwrite a register's stored value — the fault-injection hook
    ({!Fault} upsets register state between clock edges with it). Takes
    effect for the current cycle's combinational evaluation.
    @raise Invalid_argument on unknown register or wrong width. *)

val peek : state -> string -> Bitvec.t
(** Current value of any input, net, register or output, combinationally
    evaluated from current inputs and register state. *)

val step : state -> unit
(** One clock edge: registers capture their next values. *)

val reset : state -> unit
(** Pulse the global reset for one cycle (registers with a reset style load
    [init]; [No_reset] registers keep their value). *)

val run :
  state ->
  stimulus:(string * Bitvec.t) list list ->
  watch:string list ->
  Bitvec.t list list
(** [run st ~stimulus ~watch] applies one stimulus alist per cycle, samples
    the watched signals (before the clock edge), then steps; returns one
    sample row per cycle. *)
