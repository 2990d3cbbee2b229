(** Structural (gate-level) Verilog emission of a mapped netlist.

    Renders the {!Map} covering as a flat netlist of library-cell instances
    — what a synthesis tool hands to place and route. Inverters are
    materialized exactly where the mapper accounted for them, so the
    instance counts in the output match {!Map.report} cell for cell (a
    property the tests check). *)

val emit : Cells.Library.t -> name:string -> Aig.t -> string

val instance_counts : Cells.Library.t -> Aig.t -> (string * int) list
(** Cells instantiated by {!emit}, sorted by name — for cross-checking
    against {!Map.run}. *)
