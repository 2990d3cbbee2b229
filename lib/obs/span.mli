(** Nestable timed spans with structured attributes.

    A span covers the dynamic extent of a thunk: [with_span name f] opens
    the span, runs [f], and records the completed span (wall-clock start
    and duration, nesting depth, owning domain, attributes) even when [f]
    raises. Spans nest per domain — each OCaml 5 domain keeps its own open
    stack — so pool workers trace independently and the combined timeline
    renders one lane per domain in Chrome's [chrome://tracing] viewer (see
    {!Trace}).

    When observability is disabled (the default, see {!Obs.set_enabled}),
    [with_span] is a tail call to its thunk and records nothing. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type finished = {
  name : string;
  start_us : float;  (** µs since the process anchor *)
  dur_us : float;
  depth : int;       (** nesting depth within the owning domain, 0 = root *)
  tid : int;         (** owning domain id *)
  args : (string * value) list;
}

val with_span : ?args:(string * value) list -> string -> (unit -> 'a) -> 'a

val add_args : (string * value) list -> unit
(** Attach attributes to the innermost open span of the calling domain
    (useful when a value is only known mid-span). No-op with no open span
    or with observability disabled. *)

val completed : unit -> finished list
(** All completed spans, in completion order. *)

val dropped_count : unit -> int
(** Spans discarded after the in-memory cap (1M) was reached. *)

val reset : unit -> unit
(** Forget completed spans (open spans are unaffected). *)

(** {1 Time per span name} *)

type total = {
  count : int;      (** completed spans of this name *)
  total_s : float;  (** summed durations *)
  self_s : float;
      (** summed self times: a span's duration minus those of its direct
          children (same domain, depth + 1) *)
}

val totals : finished list -> (string * total) list
(** Fold spans given in completion order, as {!completed} returns them,
    into one row per name, sorted by name. *)

val to_table : unit -> string
(** {!totals} of {!completed} as a {!Report.Table}: span, count, total s,
    self s. *)

val to_json : unit -> Report.Json.t
(** {!totals} of {!completed} as an object keyed by span name. *)
