(** Random well-formed RTL designs, for fuzzing the synthesis flow.

    Generates small sequential designs exercising every IR construct:
    word-level operators, slices/concats, muxes, registers with all three
    reset styles (with and without enables), and ROM tables. The generator
    only produces valid designs ({!Rtl.Design.make} accepts them by
    construction), so any downstream failure is a tool bug, not a workload
    bug.

    Used by the property tests: lowering must match the interpreter, and
    every optimization pass must preserve sequential behaviour on every
    generated design. *)

val generate : seed:int -> Rtl.Design.t
(** Deterministic in [seed]. *)
