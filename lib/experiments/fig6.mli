(** Figure 6: FSM synthesis — table-based vs case-statement direct style.

    Three synthesis points per random controller:
    - direct (case style, tool-detected state vector — the vendor-
      recommended coding style);
    - regular (flexible tables partially evaluated, no annotations — the
      tool cannot recognize the FSM, so unused state codes stay live);
    - annotated (same netlist plus the generator's state-vector annotation,
      honoured by the flow — the paper's [set_fsm_state_vector] run).

    Claims to reproduce: the regular points scatter above the line, worst
    for state counts that don't fill the binary encoding (s ∈ {3, 17});
    annotated points sit nearly on the line. *)

type row = {
  m : int;
  n : int;
  s : int;
  seed : int;
  direct_area : (float, string) result;
  regular_area : (float, string) result;
  annotated_area : (float, string) result;
      (** [Error message] when that compile failed; the sweep keeps going
          and the engine records the failure ({!Engine.failures}). *)
}

val run :
  ?seeds:int list -> ?grid:(int * int * int) list -> Engine.t -> row list

val quick_grid : (int * int * int) list

val print : Format.formatter -> row list -> unit
