(** Value-change-dump (VCD) waveform output.

    Runs a design on a stimulus and records the watched signals in the
    standard VCD format (IEEE 1364), viewable with GTKWave and friends. One
    clock cycle spans 10 time units, with the implicit [clk] toggling at
    mid-cycle; watched values are sampled before each rising edge. *)

val of_samples :
  name:string ->
  signals:(string * int) list ->
  Bitvec.t list list ->
  string
(** [of_samples ~name ~signals rows] — the low-level emitter: one [(signal
    name, width)] per column, one row of sampled values per cycle. Used
    directly when the run cannot be replayed by {!Eval.run} (e.g. fault
    injection poking register state mid-run).
    @raise Invalid_argument when a row's length differs from [signals]. *)

val signal_width : Design.t -> string -> int option
(** Width of a named input, net, register or output; [None] if unknown. *)

val of_run :
  ?config:(string * Bitvec.t array) list ->
  Design.t ->
  stimulus:(string * Bitvec.t) list list ->
  watch:string list ->
  string
(** [of_run d ~stimulus ~watch] — one stimulus association list per cycle
    (as in {!Eval.run}); [watch] lists the signals to record (inputs, nets,
    registers or outputs). Only value *changes* are emitted, per the
    format. *)
