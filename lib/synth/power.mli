(** Activity-based power estimation.

    The paper's Fig. 9 discussion reports "area and power savings"; this
    module supplies the power half. The model is the standard first-order
    one:

    - dynamic power ∝ Σ over gates of (toggle rate × capacitance), with a
      cell's input capacitance approximated by its area and toggle rates
      measured by random-vector simulation of the mapped netlist
      (registers toggle with their data, configuration bits never toggle);
    - leakage ∝ total cell area.

    Absolute units are arbitrary (the library is synthetic); like the area
    numbers, only ratios between designs mapped with the same library are
    meaningful. *)

type estimate = {
  dynamic : float;   (** activity-weighted, arbitrary units *)
  leakage : float;   (** area-proportional, arbitrary units *)
  toggles_per_cycle : float;  (** average net toggles per clock *)
}

val total : estimate -> float

val cycles : int
(** The simulated window: 128 random-input clock cycles, Fig. 9's
    setting. *)

val estimate :
  ?config:(string * Bitvec.t array) list ->
  Cells.Library.t ->
  Aig.t ->
  Map.report ->
  (int, Map.instance) Hashtbl.t ->
  estimate
(** [estimate lib g report instances] weighs [g]'s toggles by the cells of
    its mapping, as {!Map.run_full} [lib g] returns it (a compiled design
    passes its {!Flow.result}'s [report] and [instances]). Simulates
    {!cycles} random-input clock cycles, from a fixed seed, from the
    initial state, under a [power.estimate] span. [config] loads
    configuration latches (named ["table[entry][bit]"]) with real contents
    before simulating — without it, a flexible design idles on all-zero
    microcode and its dynamic power is meaninglessly low. *)
