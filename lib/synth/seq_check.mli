(** Exact sequential equivalence by product-machine reachability.

    Builds one BDD transition relation over the union of both netlists'
    latches (inputs shared by name), computes the reachable state set from
    the joint initial state, and checks that no reachable state/input
    combination distinguishes any primary output. Unlike
    {!Equiv.check} this is a proof, not a falsifier — but only for
    designs small enough for the BDD caps, which is exactly the size of the
    unit-test designs it guards. *)

type result =
  | Equivalent
  | Counterexample of string  (** name of a distinguishing output *)
  | Gave_up of string

val run : ?max_vars:int -> Aig.t -> Aig.t -> result
(** Both graphs must have the same PI and PO names. [Gave_up] when current
    state, next state and inputs do not fit in [max_vars] (default 64) BDD
    variables, or when a BDD exceeds 200_000 nodes or the fixpoint 10_000
    image steps.
    @raise Invalid_argument if the interfaces differ. *)

val run_sat :
  ?frames:int ->
  ?max_vars:int ->
  ?on_stats:(Sat.Solver.stats -> unit) ->
  Aig.t ->
  Aig.t ->
  result
(** BDD + SAT hybrid. The BDD side computes only the reachable state set R
    (one fixpoint, no per-output miters); the per-output obligations go to
    the CDCL solver over a shared structurally-hashed miter whose latch
    states are free pseudo-inputs constrained to R. R is exact, so UNSAT
    everywhere is a complete proof and any witness is a reachable
    disagreement — its concrete trace is recovered by bounded model
    checking within the fixpoint's iteration count (the diameter), and
    [Counterexample] then carries the normalized
    {!Equiv.mismatch_to_string} witness instead of just an output name.
    If R blows the BDD caps (those of {!run}), plain SAT BMC over [frames]
    cycles (default 16) takes over: refutations stay exact, proofs become
    [Gave_up] bounds. [on_stats] receives solver
    statistics (possibly once per internal engine run).
    @raise Invalid_argument if the interfaces differ. *)
