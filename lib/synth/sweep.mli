(** Sequential cleanup.

    - Latches whose next-state is the constant equal to their init value (or
      that hold themselves) are replaced by constants — this is how
      partially-evaluated control registers disappear.
    - Latches with identical (next, init, reset) merge.
    - Logic and latches unreachable from the primary outputs are dropped.

    Configuration latches ([is_config]) are exempt from constant folding and
    merging: their contents are runtime-programmable (the write port is
    outside the modelled scope), so the "hold" next-state function does not
    mean they are constant. *)

val run : Aig.t -> Aig.t
