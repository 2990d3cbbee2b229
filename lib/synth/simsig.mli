(** Packed random-simulation signatures for latches (ABC-style candidate
    filtering).

    Two rounds of twelve {!Aig.Compiled} bit-parallel cycles from the
    initial state give every latch a signature — a hash of its packed
    state words across all simulated cycles — and a changed-bits word.
    Latches with different signatures are proven inequivalent by a
    witnessed input sequence, so the sweep's exact passes (the
    constant-latch fixpoint and the SAT inductions) need only examine
    signature-equal survivors.

    The filter is one-sided by construction: simulation can only
    {e refute} equivalence/constancy, never prove it, so consumers treat
    a matching signature as "candidate" and re-verify exactly. *)

type t

val compute : Aig.t -> t
(** Every cycle drives all {!Aig.Compiled.lanes} lanes with fresh random
    values from a fixed seed, so the result is deterministic and covers
    [2 * 12 * 63] scalar patterns. Requires every latch's next-state to be
    set. *)

val latch_signature : t -> int -> int
(** Hash of the latch's packed state stream. Equal signatures = candidate
    equivalent; different signatures = proven inequivalent (under the
    simulated reachable states).
    @raise Invalid_argument if the node is not a latch. *)

val latch_may_be_const : t -> int -> bool
(** [false] means the latch was observed leaving its init value in some
    lane/cycle — it can never satisfy the sweep's constant criterion, so
    the fixpoint may skip it. [true] keeps it as a candidate.
    @raise Invalid_argument if the node is not a latch. *)
