(** Chrome trace-event output for completed spans.

    Serializes every {!Span.finished} as a complete ("X") event in the
    [chrome://tracing] / Perfetto JSON format: timestamps and durations in
    microseconds, one thread lane per OCaml domain. Load the file with
    [chrome://tracing] or [ui.perfetto.dev]. *)

val write : string -> unit
(** Atomic write (temp file + rename in the destination directory).
    @raise Sys_error when the destination is not writable. *)

val install_at_exit : string -> unit
(** Register an [at_exit] hook writing the trace — survives [exit 1] paths
    such as failed sweeps. A write failure at exit is reported on stderr;
    the exit status is left as it was. *)
