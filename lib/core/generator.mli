(** The chip-generator façade.

    Ties the controller IRs to the synthesis flow the way the paper
    envisions a generator working:

    + pick a controller IR (truth table / FSM / microprogram);
    + emit either the *flexible* table-based RTL (configuration memories,
      optionally with the generator's knowledge attached as annotations) or
      the *direct* RTL;
    + when the configuration is known, specialize the flexible design with
      {!Synth.Partial_eval.bind_tables} (tables become ROMs) and let the
      synthesis flow fold it — no generator emits a fixed design any other
      way;
    + for *Manual*-grade results, add {!val-fsm_manual_annotation} /
      {!val-program_manual_annotations} — the reachability facts a tool
      cannot currently derive across flop boundaries. *)

val fsm_manual_annotation : Fsm_ir.t -> Rtl.Annot.t
(** State vector restricted to *reachable* states — what the paper's manual
    optimization exploited. *)

val program_manual_annotations : Microcode.program -> Rtl.Annot.t list
(** Reachable-microaddress set for the µPC plus value sets for every control
    field register (requires the registered-outputs sequencer). *)
