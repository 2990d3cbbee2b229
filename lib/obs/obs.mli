(** Pass-level observability: tracing spans + process metrics.

    One switch ({!set_enabled}) turns the whole subsystem on; while off
    (the default) every record operation returns after a single atomic
    load, so instrumented hot paths cost nothing measurable and programs
    behave identically — instrumentation may only write to stderr or to
    explicitly requested files, never stdout.

    {!Span} times nested regions (synthesis passes, campaigns) and sums
    them per span name, {!Metrics} counts work (cache hits, removed nodes,
    simulated cycles), {!Trace} serializes completed spans to Chrome trace
    JSON.
    All three are safe to use from any OCaml 5 domain. *)

module Span = Span
module Metrics = Metrics
module Trace = Trace

val set_enabled : bool -> unit

val enabled : unit -> bool

val reset : unit -> unit
(** Clear completed spans and zero all metrics (registrations survive). *)
