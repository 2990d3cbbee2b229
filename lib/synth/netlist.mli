(** Structural (gate-level) Verilog emission of a mapped netlist.

    Renders the {!Map} covering as a flat netlist of library-cell instances
    — what a synthesis tool hands to place and route. Inverters are
    materialized exactly where the mapper accounted for them, so the
    instance counts in the output match {!Map.report} cell for cell (a
    property the tests check). *)

val emit :
  Cells.Library.t ->
  name:string ->
  Aig.t ->
  (int, Map.instance) Hashtbl.t ->
  string
(** [emit lib ~name g instances] renders [g] under its mapping
    [instances], as {!Map.run_full} [lib g] returns it (or a
    {!Flow.result}'s [instances]). *)

val instance_counts :
  Cells.Library.t ->
  Aig.t ->
  (int, Map.instance) Hashtbl.t ->
  (string * int) list
(** Cells instantiated by {!emit}, sorted by name — for cross-checking
    against {!Map.report}'s [cell_counts]. *)
