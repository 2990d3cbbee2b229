(** The command-line flags shared by every executable: the synthesis
    engine's and the observability sinks'.

    [term] parses [-j/--jobs], [--cache-dir], [--no-cache], [--trace] and
    [--metrics]. Evaluating it turns observability on when either sink was
    requested; it builds no engine and touches no cache directory. A
    front-end that compiles through the engine builds one with {!engine}. *)

type t
(** The parsed flags. [-j 0] resolves to
    [Domain.recommended_domain_count ()], and reaches a run as the
    worker count of its engine ({!Engine.jobs}). *)

val term : t Cmdliner.Term.t

val engine : t -> Cells.Library.t -> Engine.t
(** A fresh engine over [lib] with the parsed [-j], [--cache-dir] and
    [--no-cache]. The cache directory is created and its journal loaded by
    the engine's first job, so a run that compiles nothing leaves it alone.
    An engine the flags cannot build (e.g. a [--cache-dir] that names a
    file) exits the process with status 2. *)

val range : ?max:int -> int -> int Cmdliner.Arg.conv
(** [range ?max min] parses a decimal integer from [min] to [max]
    inclusive ([max] unbounded when absent); anything else is a usage
    error, which cmdliner reports with exit status 124. *)

val finish : t -> Engine.t -> unit
(** End a run on stderr: the engine's statistics when it saw a job; with
    [--metrics], the process metrics and the time per span name
    ({!Obs.Span.to_table}); then, if a job failed, [N synthesis job(s)
    failed:] and each of {!Engine.failures} indented, and exit 1. Stdout
    is never touched. Both executables end every run here. *)
