(** Shared helpers for the paper-figure experiments.

    Every experiment compiles through the engine its caller passes in, so
    it picks up result caching and [-j] parallelism from whatever engine
    the front-end built. *)

val lib : Cells.Library.t

val default_flow : Synth.Flow.options
val annotated_flow : Synth.Flow.options
(** Default plus [honor_generator_annots = true] — the paper's manual
    state-annotation runs. *)

val retimed_flow : Synth.Flow.options

val sweep :
  Engine.t -> ('p -> Engine.job list) -> 'p list ->
  ('p * (float, string) result list) list
(** [sweep engine jobs points]: the jobs of every point, submitted through
    [engine] as one batch — cache-deduplicated, parallel when the engine
    has workers — and each point paired with the total mapped area of its
    own jobs, in job order. A failed compile yields [Error message] in its
    slot instead of aborting the sweep; the engine also records the message
    ({!Engine.failures}), so front-ends can print a summary and exit
    nonzero. *)

val netlists : Engine.t -> Engine.job list -> Synth.Flow.result list
(** {!Engine.netlists}, raising [Failure] with a failed job's
    {!Engine.failure_message}. *)

val fmt_area_result : (float, string) result -> string
(** As {!Report.Table.fmt_area}, with ["FAIL"] for errors. *)

val fmt_ratio_result :
  (float, string) result -> (float, string) result -> string
(** [a / b] formatted; ["const"] when both compiled and [b]'s area folds
    to zero, ["-"] when either side failed. *)

val ratio_opt :
  (float, string) result -> (float, string) result -> float option
(** [Some (a / b)] exactly where {!fmt_ratio_result} prints a number:
    summaries take their members from it. *)

val geomean : float list -> float
(** Geometric mean; 1.0 on the empty list. *)
