(** Cone collapse and two-level resynthesis.

    For every combinational root (primary output or latch next-state
    function) whose transitive fan-in cone has at most [cap] leaves, the pass
    extracts the root's truth function by exhaustive window simulation,
    applies value-set don't-cares from the honoured annotations (assignments
    where an annotated leaf vector takes a value outside its set become
    DC), minimizes with {!Twolevel.Espresso}, and rebuilds the root as
    two-level logic — but only when the estimated gate count beats the
    existing structure (local-minimum behaviour: logically equivalent inputs
    in different styles can keep different structures, which is the scatter
    the paper observes around the equal-area line).

    Espresso and the candidate costs are memoized for the whole pass by
    exact window signature, so roots and groups that repeat a truth
    function (bit-sliced designs) are analysed once.

    Roots with wider cones are copied structurally (this is the flop-boundary
    limitation: the pass never looks through a latch, so an unannotated
    registered one-hot bus is *not* optimized — Fig. 8's "Regular" series). *)

val run : ?cap:int -> annots:Annots.t list -> Aig.t -> Aig.t
(** [cap] defaults to 14 (the dense truth-table window limit). *)
