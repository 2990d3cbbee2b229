(** Content-addressed job identity.

    A synthesis job is fully determined by the design (serialized via
    {!Rtl.Serialize}), the flow options, and the cell library. The
    fingerprint is an MD5 over canonical textual forms of all three, so any
    change to any input — a different net, a flipped option, a resized cell
    — yields a new key, while re-building the same design from scratch
    yields the same one.

    The canonical forms spell out every record field explicitly; adding a
    field to {!Synth.Flow.options} or {!Cells.Cell.t} is a compile error
    here until the fingerprint learns about it, which is exactly the
    safety property a persistent cache needs.

    The key does not cover the flow's code. It starts instead with a
    constant version tag, currently [(ctrlgen-key v4)]. A deliberate change
    to flow output (a different netlist or summary for the same inputs) or
    to any canonical form bumps the tag, so that a persisted [--cache-dir]
    stops serving summaries of the old flow. *)

val version : string
(** The tag. Fault-campaign site keys cover it too, so a deliberate
    change to a fault classification bumps it. *)

val job :
  lib:Cells.Library.t -> options:Synth.Flow.options -> Rtl.Design.t -> string
(** Hex MD5 key for (design, options, library). *)
