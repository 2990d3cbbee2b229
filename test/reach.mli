(** BDD-based sequential reachability of a register group.

    Computes the set of values a named register vector can take, treating
    all other sequential elements and the primary inputs as unconstrained —
    a sound over-approximation, so any value reported unreachable really is
    unreachable and may become a don't-care.

    This is the "tool-side" way to find the unreachable states the paper's
    *Manual* optimization removes, kept as the oracle for the
    generator-side way (walking the microprogram/FSM IR in {!Core}), which
    the tests cross-check against it. *)

val latch_group : Aig.t -> prefix:string -> int array option
(** Latch nodes named ["prefix[0]"], ["prefix[1]"], … (LSB first); [None]
    if no such latches exist or indices are not contiguous from 0. *)

val reachable_values : Aig.t -> group:int array -> Bitvec.t list option
(** Fixpoint image computation. [None] when an effort cap is exceeded: 64
    BDD variables, 200_000 nodes per function, 4096 result values or
    10_000 image steps. *)
