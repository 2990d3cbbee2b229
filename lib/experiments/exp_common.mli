(** Shared helpers for the paper-figure experiments.

    Every experiment compiles through the engine its caller passes in, so
    it picks up result caching and [-j] parallelism from whatever engine
    the front-end built, and reads the outcomes through {!sweep}. *)

val lib : Cells.Library.t

val default_flow : Synth.Flow.options
val annotated_flow : Synth.Flow.options
(** Default plus [honor_generator_annots = true] — the paper's manual
    state-annotation runs. *)

val retimed_flow : Synth.Flow.options

val areas :
  Engine.t -> Engine.job list -> (float, Engine.Pool.error) result list
(** {!Engine.run}, keeping each summary's total mapped area. *)

val sweep :
  (Engine.t -> Engine.job list -> ('a, Engine.Pool.error) result list) ->
  Engine.t -> ('p -> Engine.job list) -> 'p list ->
  ('p * ('a, string) result list) list
(** [sweep submit engine jobs points]: the jobs of every point, submitted
    through [engine] as one batch by [submit] ({!areas} or
    {!Engine.netlists}), and each point paired with its own jobs'
    products, in job order. A failed compile yields [Error message] in its
    slot ({!Engine.failure_message}) instead of raising, and the engine
    records the message for the end-of-run report ({!Engine.failures}). *)

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
