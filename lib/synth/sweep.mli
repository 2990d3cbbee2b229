(** Sequential cleanup.

    - Latches whose next-state is the constant equal to their init value (or
      that hold themselves) are replaced by constants — this is how
      partially-evaluated control registers disappear.
    - Latches with identical (next, init, reset) merge.
    - Logic and latches unreachable from the primary outputs are dropped.

    With [~sat:true] the syntactic criteria are strengthened by
    SAT-validated induction: simulation signatures ({!Simsig}) propose
    constant and duplicate-latch candidates, and the CDCL solver disposes —
    candidates are kept only when a simultaneous induction closes
    (all-candidates-at-init for constants, class-equality preservation for
    duplicates). This merges latches whose next-state functions are
    logically but not structurally equal, which the syntactic pass cannot
    see. Everything SAT proves is seeded into the syntactic pass; nothing
    unproven changes behaviour.

    Configuration latches ([is_config]) are exempt from constant folding and
    merging: their contents are runtime-programmable (the write port is
    outside the modelled scope), so the "hold" next-state function does not
    mean they are constant. *)

val run : ?sat:bool -> Aig.t -> Aig.t
(** [sat] defaults to [false]. *)
