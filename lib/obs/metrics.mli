(** Process-wide work counts: counters and high-water gauges.

    Metrics count work; spans keep time (see {!Span.to_table}). Every
    value is an integer that two runs of the same work report equally,
    whatever the number of worker domains. Handles are get-or-create by
    name, so instrumented modules create them once at initialization and
    update them lock-free from any domain. All record operations are
    no-ops while observability is disabled (see {!Obs.set_enabled});
    {!reset} zeroes values in place without invalidating existing
    handles.

    Naming scheme (see DESIGN.md §10): dot-separated
    [<subsystem>.<object>.<quantity>] — e.g. [engine.pool.jobs],
    [synth.flow.collapse.ands_removed]. *)

type counter
type gauge

val counter : string -> counter
(** @raise Invalid_argument if the name is registered as another kind. *)

val gauge : string -> gauge

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val set_max : gauge -> int -> unit
(** Keep the maximum of the recorded values (high-water mark); a gauge
    reads 0 until a larger value is recorded. *)

type snapshot = Counter_v of int | Gauge_v of int

val snapshot : unit -> (string * snapshot) list
(** All registered metrics, sorted by name. *)

val reset : unit -> unit

val to_table : unit -> string
(** Fixed-width table of the snapshot ({!Report.Table} format). *)

val to_json : unit -> Report.Json.t
(** Object keyed by metric name; each value carries its kind. *)
