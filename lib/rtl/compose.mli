(** Hierarchical composition by inlining.

    The IR keeps designs flat; this module instantiates a sub-design inside
    a {!Builder} by renaming every internal object with an instance prefix
    and splicing the logic in. Annotations travel with their signals, so a
    generator-annotated sub-block keeps its knowledge inside the parent. *)

val instantiate :
  Builder.t ->
  name:string ->
  Design.t ->
  inputs:(string * Expr.t) list ->
  string ->
  Expr.t
(** [instantiate b ~name sub ~inputs] splices [sub] into [b] with every
    signal/table renamed to ["<name>_<original>"]. [inputs] must bind every
    input port of [sub]; {!Builder.finish} checks their widths. The
    returned function maps an output port name of [sub] to its expression
    in the parent.

    @raise Invalid_argument on missing/extra input bindings. *)
