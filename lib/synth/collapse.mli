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

    Espresso and the candidate costs are memoized by exact window
    signature in a {!memo} that outlives the pass: {!Flow.compile}
    shares one across its collapse iterations, and an engine shares one
    across every compile it runs. Roots and groups that repeat a truth
    function (bit-sliced designs, a table and its direct SOP) are analysed
    once per memo.

    Roots with wider cones are copied structurally (this is the flop-boundary
    limitation: the pass never looks through a latch, so an unannotated
    registered one-hot bus is *not* optimized — Fig. 8's "Regular" series). *)

type memo
(** Window signature → Espresso cover and both completions, and ordered
    signature list → candidate costs. Both are pure functions of their
    keys, so a memo can be shared by any passes, designs and domains (a
    [Mutex] guards it) without changing a result. Each signature is
    stored once; the cost keys share it. The counter
    [synth.collapse.espresso_calls] counts insertions, i.e. distinct
    signatures, and [synth.collapse.memo_hits] every other lookup, so
    both are independent of domain scheduling. *)

val create_memo : unit -> memo

val run : ?cap:int -> ?memo:memo -> annots:Annots.t list -> Aig.t -> Aig.t
(** [cap] is the widest window, in leaves; it defaults to 14, and a cap
    outside [0 .. 16] (16 is the dense truth-table limit of
    {!Twolevel.Truthfn}) raises [Invalid_argument]. [memo] defaults to a
    fresh one. *)
