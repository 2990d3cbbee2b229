(** Technology mapping and area/timing reporting.

    Covers the AIG with cells from a {!Cells.Library}: XOR/XNOR and MUX
    patterns are detected structurally (when their internal nodes have no
    other fanout), then two-node shapes map onto the 3-input cells
    (NAND3/NOR3/AOI21/OAI21 — disable with [complex_cells:false] for the
    library-richness ablation), remaining AND nodes choose among
    AND2/NAND2/NOR2/OR2 according to input complementation and the output
    phases their consumers need, and inverters are shared per node. Latches
    map to the flop cell matching their reset style — this is where Fig. 8's
    reset-style area differences and Fig. 9's configuration-bit cost come
    from.

    The mapper is intentionally greedy; its granularity (the "discrete
    standard cell library") is one source of the small area differences
    between logically equivalent implementations. *)

type report = {
  comb_area : float;
  seq_area : float;
  cell_counts : (string * int) list;  (** sorted by cell name *)
  critical_delay : float;
  num_flops : int;
  config_bits : int;
}

val total : report -> float

type instance = {
  inst_cell : Cells.Cell.t;
  out_positive : bool;
      (** does the cell output carry the positive phase of the AIG node? *)
  pins : (int * bool) list;
      (** (source node, wants-positive), in the cell's input-pin order *)
}

val run_full :
  ?complex_cells:bool ->
  Cells.Library.t ->
  Aig.t ->
  report * (int, instance) Hashtbl.t
(** Map [g] onto the library: the report plus the mapped gate per AND node
    (pattern-internal nodes have no entry). [complex_cells] defaults to
    [true]. {!Flow.compile} keeps both in its result, for
    {!Power.estimate} and {!Netlist}; {!selfcheck} maps afresh. *)

val selfcheck :
  ?samples:int ->
  ?complex_cells:bool ->
  Cells.Library.t ->
  Aig.t ->
  (unit, string) Stdlib.result
(** Simulate the mapped gate netlist against the AIG on random input/state
    assignments — a functional check of the pattern covering and phase
    assignment, gate by gate. *)

val pp_report : Format.formatter -> report -> unit
