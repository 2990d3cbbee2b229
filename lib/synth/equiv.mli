(** Equivalence checking: one entry point, {!run}, over three engines.

    - {!Sim}: random simulation from the initial states, a fast falsifier
      and never a proof.
    - {!Sat}: a complete SAT engine on combinational netlists and on
      sequential pairs whose latches correspond by name
      (register-correspondence induction), with bounded model checking
      as the fallback.
    - {!Bdd}: exact reachability of the product machine, a proof for
      designs small enough for the BDD caps.

    Every engine normalizes its witness the same way — the first
    differing output in sorted name order, replayed through the scalar
    simulator — so one bug prints identically whichever engine found it. *)

type mismatch = {
  cycle : int;
  output : string;
  got : bool;
  expected : bool;
}

val mismatch_to_string : mismatch -> string
(** ["cycle %d, output %s: %b vs %b"] — the normalized one-line witness
    format shared by every engine and consumer. *)

type cex = {
  tape : (string * bool) list array;
  (** Per-cycle input assignment (PI name, value), cycle 0 first, ending at
      the mismatch cycle. Replaying it through both netlists reproduces
      [first]. *)
  first : mismatch;  (** First divergence in sorted output-name order. *)
}

type verdict =
  | Proved  (** Equivalence certified — SAT or BDD engine only. *)
  | Refuted of cex  (** Concrete counterexample, replayed and confirmed. *)
  | Undecided of string
      (** The engine exhausted its budget (simulation runs, BMC depth, BDD
          caps) without a verdict; the string says which budget. *)

type engine =
  | Sim of { seed : int }
      (** Each of 8 passes drives {!Aig.Compiled.lanes} independent random
          stimulus streams, seeded from [seed], bit-parallel through both
          compiled netlists for up to 64 cycles, recording the words it
          drives. On divergence the lowest mismatching lane's bits of
          those words are its scalar tape, replayed through the same
          lockstep loop as every other engine's witness. Agreement on
          every run is [Undecided]. *)
  | Sat of { frames : int }
      (** Both graphs are Tseitin-encoded into one incremental solver with
          primary inputs shared by name; each proof obligation (one aligned
          output pair, or one matched latch's next-state function) is an
          assumption-gated XOR over the shared CNF.
          - No latches on either side: combinational equivalence, complete.
          - Same unique latch names and initial values on both sides:
            register-correspondence induction (latch states become shared
            free pseudo-inputs). All obligations UNSAT is a complete
            sequential proof; a satisfiable one may be an unreachable-state
            artifact, so the engine falls back to BMC instead of refuting.
          - Otherwise: bounded model checking — both netlists unrolled
            [frames] cycles into one structurally-hashed miter, solved frame
            by frame. Exhausting the bound is [Undecided]. *)
  | Bdd of { max_vars : int }
      (** One BDD transition relation over the union of both netlists'
          latches (inputs shared by name); each iterate of the reachable
          set from the joint initial state is checked against every output
          miter. Outputs pair as in the other engines: the k-th output of
          a given name in [a] with the k-th of that name in [b]. A miter
          that fires at iterate [i] is replayed by BMC over [i + 1]
          frames. [Undecided] when current state, next state and inputs
          do not fit in [max_vars] BDD variables, or when a BDD exceeds
          200_000 nodes or the fixpoint 10_000 image steps. *)

val run :
  ?on_stats:(Sat.Solver.stats -> unit) -> engine -> Aig.t -> Aig.t -> verdict
(** [run engine a b] checks [a] against [b]; both graphs must have the same
    PI and PO names (latch sets may differ). [Refuted] always carries a
    tape that replays through the scalar simulator; [Failure] is raised if
    a packed simulation mismatch or a SAT model does not replay, or if BMC
    cannot reproduce a BDD refutation — an engine soundness bug. [on_stats] receives the summed
    solver statistics, once per call that used the solver: every [Sat]
    call and every [Bdd] refutation.
    @raise Invalid_argument if the interfaces differ. *)

val check : seed:int -> Aig.t -> Aig.t -> verdict
(** [run (Sim { seed })], kept for [perfbench/]. *)

val check_sat :
  ?frames:int ->
  ?on_stats:(Sat.Solver.stats -> unit) ->
  Aig.t ->
  Aig.t ->
  verdict
(** [run ?on_stats (Sat { frames })], [frames] 16 by default, kept for
    [perfbench/]. *)

val rtl_vs_aig :
  ?config:(string * Bitvec.t array) list ->
  seed:int ->
  Rtl.Design.t ->
  Aig.t ->
  mismatch option
(** Compare the RTL interpreter against a lowered/optimized AIG over 8 runs
    of 64 random cycles. [config] binds configuration tables on the RTL
    side; on the AIG side the same contents must already be reflected
    (bound designs) — flexible designs with unbound configuration latches
    can only be compared with all-zero config. Bits are matched by
    {!Lower.bit_name}. It is not a {!run} engine: its reference side is the
    RTL interpreter ({!Rtl.Eval}), not a netlist, so there is no second AIG
    to pair outputs with or build a miter from; and [perfbench/] reads its
    [mismatch option].
    @raise Invalid_argument naming the bit if an AIG input is not an RTL
    input bit, or an RTL output bit has no AIG output. *)
