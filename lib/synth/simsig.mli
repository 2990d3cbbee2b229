(** Packed random-simulation filter for latch constancy (ABC-style
    candidate filtering).

    Two rounds of twelve {!Aig.Compiled} bit-parallel cycles from the
    initial state give every latch a changed-bits word: the OR, over all
    simulated cycles, of its state XOR its init value. A latch with a
    non-zero word was witnessed leaving its init value, so the sweep's
    constant-latch fixpoint need only examine the latches whose word is
    zero.

    The filter is one-sided by construction: simulation can only
    {e refute} constancy, never prove it, so the sweep treats a zero word
    as "candidate" and re-verifies exactly. *)

type t

val compute : Aig.t -> t
(** Every cycle drives all {!Aig.Compiled.lanes} lanes with fresh random
    values from a fixed seed, so the result is deterministic and covers
    [2 * 12 * 63] scalar patterns. Requires every latch's next-state to be
    set. *)

val latch_may_be_const : t -> int -> bool
(** [false] means the latch was observed leaving its init value in some
    lane/cycle — it can never satisfy the sweep's constant criterion, so
    the fixpoint may skip it. [true] keeps it as a candidate.
    @raise Invalid_argument if the node is not a latch. *)
