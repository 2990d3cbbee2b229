(** Fault-injection campaigns: enumerate (or sample) fault sites, run each
    golden-vs-faulty simulation on {!Engine.Pool} workers, and aggregate a
    classification report.

    Determinism: for a fixed (seed, model, sites) the site list, the
    per-site outcomes, and the rendered report are identical across [jobs]
    counts, with or without a store, and across kill-and-resume —
    campaigns are safe to diff byte for byte. *)

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
  ?engine:Engine.t ->
  ?on_checkpoint:(int -> unit) ->
  ?aig:Sim.aig_spec ->
  seed:int ->
  sites:int ->
  model:model ->
  Sim.spec ->
  report
(** [sites <= 0] runs the exhaustive population; otherwise a seeded sample
    of that many sites (model [All] always retains the control site).
    Model [Stuck] without [~aig] has an empty population.

    - [jobs]: worker domains (default [Engine.jobs engine], else 1). Sites
      run in chunks of [4 * jobs], so a kill loses at most the chunk in
      flight.
    - [engine]: the store. A site settles from {!Engine.lookup}, or is
      simulated and {!Engine.append}ed in site order, keyed by a digest of
      what it runs on (the whole {!Sim.spec}; or {!Aig.digest}, [cycles]
      and [seed]) and {!Engine.Fingerprint.version}, then {!Site.key}: no
      other campaign's record answers it. The digest is computed only if
      the engine has a store.
    - [on_checkpoint]: called with the count of outcomes this run has
      stored, after each — the crash-injection tests' hook.

    Stuck-at sites are classified bit-parallel via
    {!Sim.aig_run_sites_packed} in a pre-pass — {!Aig.Compiled.lanes}
    sites per simulation — before the workers start; they then answer
    them from the precomputed table. Classifications equal
    {!Sim.aig_run_site} site by site. The pre-pass covers exactly the
    sites the store leaves unsettled: a stored site is never
    re-simulated, and one whose stored payload no longer decodes is.

    A site whose simulation raises is a [failed] row, through the pool's
    per-item isolation, and is not stored, so it runs again next time;
    {!Sim.Hang} means only that [done] never asserted. *)

val first_mismatch : report -> Site.t option
(** The first site classified as a mismatch — the one worth a VCD dump. *)

val to_table : report -> string

val summary_line : report -> string

val print : out_channel -> report -> unit
(** Header line, site table, summary line — a pure function of the report,
    which is what the kill-and-resume byte-identity test diffs. *)

val to_json : report -> Report.Json.t
