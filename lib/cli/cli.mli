(** The command-line flags shared by every executable: the process-wide
    synthesis engine and the observability sinks.

    [term] parses [-j/--jobs], [--cache-dir], [--no-cache], [--trace] and
    [--metrics]. Evaluating it turns observability on when either sink was
    requested and installs the default engine over {!Cells.Library.vt90};
    an engine the flags cannot build (e.g. a [--cache-dir] that names a
    file) exits the process with status 2. *)

type t = {
  reconfigure : Cells.Library.t -> unit;
      (** rebuild the default engine with the same flags over another cell
          library *)
  sim_jobs : int;
      (** resolved [-j] value, the engine's worker count too; [-j 0] is
          [Domain.recommended_domain_count ()] *)
  metrics : bool;  (** [--metrics] was given *)
}

val term : t Cmdliner.Term.t

val range : ?max:int -> int -> int Cmdliner.Arg.conv
(** [range ?max min] parses a decimal integer from [min] to [max]
    inclusive ([max] unbounded when absent); anything else is a usage
    error, which cmdliner reports with exit status 124. *)

val finish : t -> unit
(** Print the end-of-run tables to stderr: the engine statistics when the
    default engine saw at least one job, then, when [--metrics] was given,
    the process metrics and the time per span name ({!Obs.Span.to_table}).
    Stdout is never touched. *)
