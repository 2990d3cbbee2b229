(** SystemVerilog-flavoured pretty printer.

    Emits a readable single-module rendering of a design, documenting the
    correspondence between this IR and the RTL the paper synthesized. ROM
    tables become constant case functions; configuration tables become
    flip-flop arrays with a comment marking them as programmable (their write
    port is outside the modelled scope, as in the paper's PCtrl figures). *)

val emit : Design.t -> string
