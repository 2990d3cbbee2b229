(** AIGER (ASCII, "aag") interchange for AIGs.

    The de-facto exchange format of the logic-synthesis and model-checking
    world (ABC, aiger tools, HWMCC): writing it makes every netlist in this
    repository consumable by external tools, and reading it lets external
    AIGs run through this flow.

    Reset styles and configuration flags, which the format cannot express,
    round-trip through the comment section (initial values through the
    init field). [write] renumbers inputs, then latches, then ANDs, and
    structural hashing may merge AND nodes on read, so a roundtrip
    preserves *behaviour* (checked by sequential equivalence), not node
    ids — unless the graph is {!ordered}. *)

val write : Aig.t -> string
(** The graph in [aag] format with a full symbol table, then
    [l<i> RESET CONFIG] comment lines for its latches. *)

val ordered : Aig.t -> bool
(** The inputs are nodes [1..I] and the latches the next [L], as in every
    flow result: [write] renumbers nothing, and [read (write g)] is
    {!Aig.equal} to a [g] built through {!Aig.and_}. *)

val to_file : string -> Aig.t -> unit

exception Parse_error of int * string
(** Line number and message. *)

val read : string -> Aig.t
(** @raise Parse_error on malformed input. *)
