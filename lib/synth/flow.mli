(** Canned synthesis flows (the "tool" the experiments drive).

    A flow lowers a design and runs:
    sweep → [retime] → state propagation → collapse → sweep → collapse →
    sweep → map. The second collapse → sweep iteration is left out when
    the first returns a graph {!Aig.equal} to its input: it would
    rebuild the same graph, so the result is the same either way.

    FSM-style annotations the tool could infer from coding style (Design
    Compiler's automatic FSM detection on case-statement RTL) are always
    honoured, state propagation runs whenever an annotation is honoured,
    and collapse minimizes with Espresso's default iteration budget.

    The option record exposes exactly the knobs the paper's experiments
    turn:
    - [collapse_cap]: the widest cone collapse resynthesizes
      ({!Collapse.run}).
    - [honor_generator_annots]: whether generator-supplied annotations
      (the manual [set_fsm_state_vector] / state annotation of the paper)
      are used. Default off — turning it on is the "State annotated"
      series of Figs. 6 and 8.
    - [annot_width_cap]: annotations on vectors wider than this are ignored
      (the paper's n ≤ 32 cliff).
    - [retime]: forward retiming before optimization (Fig. 8's "Retimed").

    The flow does not check its own output: callers that want a
    certificate run {!Equiv.run} (its [Sat] engine, or the simulation
    engine [Sim]) on the design's {!Lower.run} netlist against the
    result's [aig]. The result keeps no pre-optimization netlist, so a
    retained result costs only its optimized graph and that graph's
    mapping. *)

type options = {
  collapse_cap : int;
  honor_generator_annots : bool;
  annot_width_cap : int;
  retime : bool;
}

val default : options
(** [{ collapse_cap = 14; honor_generator_annots = false;
      annot_width_cap = 32; retime = false }] *)

type result = {
  aig : Aig.t;  (** optimized netlist *)
  report : Map.report;
  instances : (int, Map.instance) Hashtbl.t;
      (** [aig]'s mapped gates, from the {!Map.run_full} that made [report];
          {!Power.estimate} and {!Netlist.emit} read them instead of
          mapping again. *)
}

val compile :
  ?options:options ->
  ?memo:Collapse.memo ->
  Cells.Library.t ->
  Rtl.Design.t ->
  result
(** [memo] is shared by both collapse iterations; it defaults to a fresh
    one per call. Passing one memo to many compiles (as an engine does)
    saves their repeated window analyses and changes no result. *)

val area : result -> float
(** Total mapped area, µm². *)
