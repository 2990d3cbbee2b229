(** Fault-injection campaigns: enumerate (or sample) fault sites, run each
    golden-vs-faulty simulation as an {!Engine.Batch} job, and aggregate a
    classification report.

    Determinism: for a fixed (seed, model, sites) the site list, the
    per-site outcomes, and the rendered report are identical across [jobs]
    counts and across kill-and-resume — campaigns are safe to diff byte
    for byte. *)

type model =
  | Control  (** the single {!Site.No_fault} site — simulator self-test *)
  | Tables  (** SEU in configuration-table storage *)
  | Regs  (** transient register-bit upsets *)
  | Stuck  (** netlist stuck-at faults (needs [~aig]) *)
  | All

val model_name : model -> string

type row = { site : Site.t; result : (Sim.outcome, string) result }
(** [Error] carries a rendered job-failure message (a crash), not a
    fault classification. *)

type report = {
  model : model;
  seed : int;
  population : int;  (** sites enumerated before sampling *)
  injected : int;  (** sites actually simulated *)
  masked : int;
  mismatches : int;
  hangs : int;
  failed : int;  (** jobs that errored rather than classified *)
  rows : row list;  (** in site order *)
}

val run :
  ?jobs:int ->
  ?journal:Engine.Journal.t ->
  ?resume:Engine.Journal.entry list ->
  ?on_checkpoint:(int -> unit) ->
  ?aig:Sim.aig_spec ->
  seed:int ->
  sites:int ->
  model:model ->
  Sim.spec ->
  report
(** [sites <= 0] runs the exhaustive population; otherwise a seeded sample
    of that many sites (model [All] always retains the control site).
    [jobs]/[journal]/[resume]/[on_checkpoint] are passed to
    {!Engine.Batch.run}. Model [Stuck] without [~aig] has an empty
    population.

    Stuck-at sites are classified bit-parallel via
    {!Sim.aig_run_sites_packed} in a pre-pass — {!Aig.Compiled.lanes}
    sites per simulation — before the batch starts; batch workers then
    answer them from the precomputed table. Classifications equal
    {!Sim.aig_run_site} site by site. The pre-pass covers exactly
    {!Engine.Batch.pending}: sites settled by [resume] are never
    re-simulated, and a journaled payload that no longer decodes is.

    A site whose simulation raises is a [failed] row, through the batch's
    per-item isolation; {!Sim.Hang} means only that [done] never
    asserted. *)

val first_mismatch : report -> Site.t option
(** The first site classified as a mismatch — the one worth a VCD dump. *)

val to_table : report -> string

val summary_line : report -> string

val print : out_channel -> report -> unit
(** Header line, site table, summary line — a pure function of the report,
    which is what the kill-and-resume byte-identity test diffs. *)

val to_json : report -> Report.Json.t
