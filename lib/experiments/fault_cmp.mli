(** Fault vulnerability of the flexible PCtrl vs its partially evaluated
    fixed build — the robustness counterpart of the Fig. 9 area story.

    The flexible controller keeps its sequencer microcode, dispatch table
    and pipe FSM tables in configuration memories, every bit of which is a
    live upset target for the whole run. Partial evaluation binds those
    tables and synthesis folds them into fixed logic, so the bound build's
    table-SEU population is zero by construction — flexibility is paid for
    in soft-error cross-section, not just area.

    Both implementations run the same Copy_line transaction (the
    [test_pctrl] stimulus) and are scored by {!Fault.Campaign} under the
    control, table-SEU, register-upset and netlist stuck-at models; the
    stuck-at campaign compiles each implementation through the engine and
    classifies sites bit-parallel through the {!Aig.Compiled} kernel. *)

type impl = Flexible | Bound

val impl_name : impl -> string

type row = {
  impl : impl;
  model : Fault.Campaign.model;
  report : Fault.Campaign.report;
}

val spec_of :
  ?cycles:int -> ?mode:Pctrl.Controller.mode -> impl -> Fault.Sim.spec
(** The fault-simulation spec for one implementation: design, bound
    config (for [mode], default [Cached]), Copy_line stimulus, watched
    outputs, [resp] as done signal. *)

val run : ?sites:int -> Engine.t -> row list
(** Campaigns for both implementations under each model, with seed 0, on
    the engine's workers and against its store, so a warm [--cache-dir]
    simulates no site. [sites] caps each campaign's sample (defaults 48);
    register models sample injection cycles within the 40-cycle stimulus
    of {!spec_of}. The stuck-at model simulates 40 random netlist-stimulus
    cycles on Fig. 9's Full and Auto cached netlists
    ({!Exp_common.netlists}). *)

val print : Format.formatter -> row list -> unit

val to_json : row list -> Report.Json.t
