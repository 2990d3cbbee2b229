(** What the engine remembers about a finished synthesis job.

    Deliberately *not* the full {!Synth.Flow.result}, which a caller that
    reads the netlist asks for with [Engine.netlists]: sweeps only consume
    the mapped report and coarse AIG statistics. The summary is small
    enough to persist for every job ever run, and it is a pure function of
    the job: it records no timing.

    [to_string]/[of_string] write and read one {!Report.Json} object whose
    floats are hexadecimal ([%h]) strings, so a summary read back from disk
    is bit-identical to the one written without relying on the decimal
    printer — warm-cache runs reproduce cold-run figures exactly. *)

type t = {
  report : Synth.Map.report;
  aig_ands : int;     (** AND nodes of the optimized AIG *)
  aig_latches : int;  (** latches of the optimized AIG *)
}

val of_flow : Synth.Flow.result -> t

val area : t -> float
(** Total mapped area, µm². *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of [to_string]; [Error] names the first missing or malformed
    field. *)
