(** Golden-vs-faulty simulation and outcome classification.

    Every injected site is classified against a fault-free ("golden") run
    of the same stimulus:
    - {!Masked}: every watched signal matched the golden trace on every
      cycle — the fault had no architecturally visible effect.
    - {!Mismatch}: the first cycle and signal where the faulty trace
      diverged.
    - {!Hang}: the golden run asserted the [done_signal] but the faulty
      run never did, even when clocked for twice the stimulus length with
      inputs held.

    A simulation that raises is not an outcome: the exception propagates,
    and a campaign reports that site as a failed row.

    RTL faults ({!Site.Table_bit}, {!Site.Reg_bit}) simulate through
    {!Rtl.Eval}; netlist stuck-at faults simulate on the {!Aig} through
    the {!Aig.Compiled} bit-parallel kernel: {!aig_run_sites_packed}
    classifies up to {!Aig.Compiled.lanes} sites per simulation pass with
    per-lane force masks, and is the classifier campaigns use. The scalar
    {!aig_run_site} forces the stuck node on lane 0 and reads lane 0 only;
    it is the reference the packed pass is checked against. Both are pure
    functions of (spec, site), safe to run concurrently from {!Engine}
    pool workers. *)

type outcome =
  | Masked
  | Mismatch of { cycle : int; signal : string }
  | Hang of string

val outcome_class : outcome -> string
(** ["masked"] / ["mismatch"] / ["hang"]. *)

val outcome_detail : outcome -> string

val outcome_to_string : outcome -> string
(** Stable single-line encoding, the {!Engine.Journal} payload. *)

val outcome_of_string : string -> (outcome, string) result
(** Inverse of {!outcome_to_string}. *)

(** {1 RTL fault simulation} *)

type spec = {
  design : Rtl.Design.t;
  config : (string * Bitvec.t array) list;
  stimulus : (string * Bitvec.t) list list;
      (** per-cycle input bindings, as for {!Rtl.Eval.run} *)
  watch : string list;  (** signals compared against the golden trace *)
  done_signal : string option;
}

val spec :
  ?config:(string * Bitvec.t array) list ->
  ?done_signal:string ->
  stimulus:(string * Bitvec.t) list list ->
  watch:string list ->
  Rtl.Design.t ->
  spec
(** [done_signal], when given, is appended to [watch] if absent so delayed
    completion reads as a mismatch. *)

type golden = { samples : Bitvec.t list list; done_seen : bool }

val golden : spec -> golden
(** The fault-free reference trace; compute once per campaign and share. *)

val run_site : spec -> golden -> Site.t -> outcome
(** Simulate one fault site and classify it. Table faults are applied
    persistently to a copy of the bound contents ({!Rtl.Design.Config}
    binding or ROM storage); register faults flip the bit at the start of
    their injection cycle via {!Rtl.Eval.poke_reg}. The spec's own
    bindings are never mutated. A raising simulation raises here too.
    @raise Invalid_argument on {!Site.Stuck_at} — netlist faults go
    through {!aig_run_sites_packed} — and on a site naming a table or
    register the design lacks. *)

val vcd_site : spec -> Site.t -> string
(** The faulty watch-signal trace over the stimulus window (no hang
    extension), rendered as a VCD document via {!Rtl.Vcd.of_samples}. *)

(** {1 Netlist (AIG) stuck-at simulation} *)

type aig_spec = { aig : Aig.t; cycles : int; seed : int }
(** Stimulus for the netlist path is [cycles] rows of random primary-input
    values drawn deterministically from [seed] — identical for golden and
    faulty runs. Latches start at their declared init values. *)

type aig_golden
(** Per-cycle primary-output values of the fault-free run. *)

val aig_golden : aig_spec -> aig_golden

val aig_run_site : aig_spec -> aig_golden -> Site.t -> outcome
(** Simulate with the stuck node forced to its stuck value (fanout sees
    the forced value; the fault is persistent) and compare primary
    outputs, one site per simulation: the reference that
    {!aig_run_sites_packed} is checked against.
    @raise Invalid_argument on RTL-state sites. *)

val aig_run_sites_packed :
  aig_spec -> aig_golden -> Site.t list -> (Site.t * outcome) list
(** Classify a batch of stuck-at sites bit-parallel: sites are chunked
    {!Aig.Compiled.lanes} at a time, lane [i] of a chunk simulates site
    [i] via per-lane force masks, and each lane is compared against the
    replicated golden trace after every cycle (with early exit once all
    lanes have diverged). Classifications are byte-identical to mapping
    {!aig_run_site} over the list — the packed pass preserves the
    first-cycle, first-output mismatch attribution. Input order is
    preserved in the result. @raise Invalid_argument on RTL-state sites;
    a netlist that does not compile raises as {!aig_golden} does. *)
