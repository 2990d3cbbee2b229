(** Parallel synthesis job engine with content-addressed result caching.

    A {e job} is one [Synth.Flow.compile] of a design under a given option
    record and cell library, returning {!run}'s area {!Summary} or
    {!netlists}' whole [Synth.Flow.result]. The engine:

    - fingerprints each job ({!Fingerprint}) and serves repeats from a
      result cache — an in-memory table always, and with a [cache_dir] one
      append-only {!Journal}, [<cache_dir>/results.jsonl] — so sweeps never
      recompute an identical (design, options, library) triple, within a
      run or across runs;
    - coalesces duplicate jobs inside one batch (each distinct key compiles
      once, every requester shares the result);
    - executes cache misses on worker domains, under exception isolation:
      a crashing job yields an [Error] outcome for itself only. All three
      are one call of {!Batch.map}, the runner fault campaigns use too;
    - gives every compile it runs one shared collapse analysis memo
      ({!Synth.Collapse.memo}), created with the engine, so a window
      function that recurs across jobs is minimized once per engine; each
      compile is an [engine.job] span carrying the job's name.

    The results journal holds one [{"k":key,"v":payload}] record per
    compiled job: {!Fingerprint.job} and a {!Summary}, or for a netlist
    that key plus [" netlist"] and [Synth.Aiger.write] text, decoded by
    [Synth.Aiger.read] and [Synth.Map.run_full]. A result that is not
    [Synth.Aiger.ordered] would not read back node for node, so it is kept
    in memory only. The engine's first job creates the cache dir and loads
    the journal, undecoded; a key's records are decoded when the key is
    first asked for, by the rule fault-campaign resume uses
    ({!Batch.first_good}): the first record that decodes wins, so a corrupt
    or torn record is a miss and the recompiled job's record, appended
    after it, serves later runs. It is opened for appending on the first
    store. Disk failures are soft: a cache dir that cannot be created, or a
    journal that cannot be opened or appended to, leaves the engine running
    memory-only. Hits, misses and stores are counted process-wide by the
    [engine.cache.*] {!Obs.Metrics} counters.

    There is no process-wide engine. A front-end creates one per run and
    passes it to every experiment that compiles through it, so each cache
    lives exactly as long as the value its caller holds, netlists too.

    Determinism: [Synth.Flow.compile] is a pure function of the job inputs,
    so outcomes are independent of worker count, scheduling order, and
    cache temperature — [run] returns outcomes in request order, and a
    [-j 8] warm-cache run is bit-identical to a [-j 1] cold one. *)

module Fingerprint = Fingerprint
module Summary = Summary
module Pool = Pool
module Journal = Journal
module Batch = Batch

type job = {
  jname : string;  (** label for error messages and reports *)
  design : Rtl.Design.t;
  options : Synth.Flow.options;
}

val job : ?options:Synth.Flow.options -> Rtl.Design.t -> job
(** Job named after the design; [options] defaults to {!Synth.Flow.default}. *)

type outcome = (Summary.t, Pool.error) result

type stats = {
  submitted : int;  (** jobs requested through [run] and [netlists] *)
  executed : int;   (** jobs that actually compiled *)
  failed : int;     (** executed jobs that settled in [Error] *)
  mem_hits : int;
      (** served from memory, incl. batch coalescing:
          [submitted - executed - disk_hits] *)
  disk_hits : int;
      (** served by a record of the results journal, the first time its
          key came up; later requests for it are memory hits *)
  wall_s : float;   (** wall-clock spent inside [run] and [netlists] *)
  cpu_s : float;    (** summed per-job compile time across workers *)
}

type t

val create :
  ?jobs:int ->
  ?cache_dir:string ->
  ?no_cache:bool ->
  Cells.Library.t ->
  t
(** [jobs]: worker domains for cache-miss execution; [1] (default) compiles
    on the calling domain. [cache_dir] is left untouched until the first
    job or {!lookup}, which creates it (recursively) if missing and loads
    its results journal then, so an engine that is never asked leaves no
    trace on disk.
    [no_cache] disables result caching entirely ([cache_dir] is then
    ignored).
    @raise Invalid_argument if [jobs < 1], or if [cache_dir] exists and is
    not a directory. *)

val run : t -> job list -> outcome list
(** Area summaries, in request order. Never raises on job failure; each
    failed slot's message is recorded for {!failures}. *)

val netlists : t -> job list -> (Synth.Flow.result, Pool.error) result list
(** {!run}, returning each job's whole flow result. *)

val failure_message : job -> Pool.error -> string
(** ["synthesis job NAME failed: REASON"]. *)

val failures : t -> string list
(** The {!failure_message} of every failed slot this engine has run, in
    request order across calls: a front-end prints them and exits
    nonzero. *)

val jobs : t -> int
(** The worker count the engine was created with. *)

(** {1 The store, for keyed clients}

    Clients that content-address their own results (fault campaigns)
    keep them in the results journal. Neither call counts in {!stats} or
    the [engine.cache.*] metrics, or forces the key without a store
    ([cache_dir], and not [no_cache]). *)

val lookup :
  t -> decode:(string -> ('a, string) result) -> string Lazy.t -> 'a option
(** The first record for the key that decodes ({!Batch.first_good}). *)

val append : t -> string Lazy.t -> string -> unit
(** [append t key payload] stores a record, flushed, and serves it to
    later {!lookup}s on [t]; soft on disk failure, as compile records. *)

val stats : t -> stats

val stats_table : stats -> string
(** Two-column rendering via {!Report.Table}. *)
