(** AIGER (ASCII, "aag") interchange for AIGs.

    The de-facto exchange format of the logic-synthesis and model-checking
    world (ABC, aiger tools, HWMCC): writing it makes every netlist in this
    repository consumable by external tools, and reading it lets external
    AIGs run through this flow.

    Caveats inherent to the format: reset styles are not representable
    (latches read back as [No_reset]; initial values are preserved via the
    optional init field), and structural hashing may merge AND nodes on
    read, so a write/read roundtrip preserves *behaviour* (checked in the
    tests by sequential equivalence), not node counts. *)

val write : Aig.t -> string
(** The graph in [aag] format with a full symbol table. *)

val to_file : string -> Aig.t -> unit

exception Parse_error of int * string
(** Line number and message. *)

val read : string -> Aig.t
(** @raise Parse_error on malformed input. *)
