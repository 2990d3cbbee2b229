(** Conservative forward retiming.

    Moves registers forward across AND nodes: when both fanins of an AND are
    (possibly complemented) outputs of reset-free, non-configuration latches,
    the AND output becomes a fresh latch whose next-state function is the
    AND of the source latches' next-state functions and whose initial value
    is the AND of their (complement-adjusted) initial values.

    Latches with a synchronous or asynchronous reset are never moved —
    merging them would change reset behaviour — which reproduces the paper's
    observation that retiming helps only for some flop styles. Original
    latches left without fanout are removed by {!Sweep}. *)

val run : Aig.t -> Aig.t
(** Iterates rounds, each followed by a {!Sweep}, until one moves no
    latch, or for at most 512 rounds. *)
