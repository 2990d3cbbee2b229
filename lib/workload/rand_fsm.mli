(** Random FSMs — the Fig. 6 workload.

    The paper sweeps random controllers with m ∈ {2, 8} inputs,
    n ∈ {2, 8, 16} outputs and s ∈ {2, 3, 8, 16, 17} states. Like realistic
    controllers (and unlike uniformly random boolean functions), each state
    branches on a small subset of the inputs: every state draws 0–2 "active"
    input bits and its next-state/output entries depend only on those. *)

val generate :
  seed:int -> num_inputs:int -> num_outputs:int -> num_states:int -> Core.Fsm_ir.t

val paper_grid : (int * int * int) list
(** All (m, n, s) combinations of the paper's sweep. *)
