(** Equivalence checking: random simulation (fast falsifier) and a complete
    SAT engine.

    The simulation side drives two sequential netlists from their initial
    states with the same random input streams and compares outputs cycle by
    cycle — an integration-level safety net, not a proof. The SAT side
    ({!check_sat}) is complete on combinational netlists and on sequential
    pairs whose latches correspond by name (register-correspondence
    induction), with bounded model checking as the fallback. Both engines
    normalize their witnesses the same way — the first differing output in
    sorted name order, replayed through the scalar simulator — so a sim
    counterexample and a SAT counterexample for the same bug print
    identically. *)

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
  | Proved  (** Equivalence certified (UNSAT miter) — SAT engine only. *)
  | Refuted of cex  (** Concrete counterexample, replayed and confirmed. *)
  | Undecided of string
      (** The engine exhausted its budget (simulation runs, BMC depth)
          without a verdict; the string says which budget. *)

val check : ?cycles:int -> ?runs:int -> seed:int -> Aig.t -> Aig.t -> verdict
(** Simulation engine. Both graphs must have the same PI and PO names
    (latch sets may differ). Each of the [runs] passes (default 8) drives
    {!Aig.Compiled.lanes} independent random stimulus streams bit-parallel
    through both compiled netlists for [cycles] cycles (default 64); on
    divergence the mismatching lane is recovered from the XOR word and
    replayed as a single scalar vector, so the counterexample is exact and
    its tape reproduces it. Never returns [Proved]: agreement on every run
    is [Undecided].
    @raise Invalid_argument if the interfaces differ. *)

val check_sat :
  ?frames:int ->
  ?on_stats:(Sat.Solver.stats -> unit) ->
  Aig.t ->
  Aig.t ->
  verdict
(** Complete SAT engine. Both graphs are Tseitin-encoded into one
    incremental solver with primary inputs shared by name; each proof
    obligation (one aligned output pair, or one matched latch's next-state
    function) is an assumption-gated XOR solved over the shared CNF.

    - No latches on either side: combinational equivalence, complete —
      returns [Proved] or [Refuted].
    - Same latch names and initial values on both sides:
      register-correspondence induction (latch states become shared free
      pseudo-inputs). All obligations UNSAT is a complete sequential proof.
      A satisfiable obligation may be an unreachable-state artifact, so the
      engine falls back to BMC instead of refuting.
    - Otherwise: bounded model checking — both netlists unrolled [frames]
      cycles (default 16) into a fresh structurally-hashed miter, solved
      incrementally frame by frame. SAT yields [Refuted]; exhausting the
      bound yields [Undecided].

    Every SAT model is replayed through the scalar simulator before being
    reported, so [Refuted] always carries a concrete, confirmed witness
    ([Failure] is raised if replay disagrees — an encoder soundness bug).
    [on_stats] receives the aggregated solver statistics for the call.
    @raise Invalid_argument if the interfaces differ. *)

(** {1 Miter construction}

    The pieces every SAT check shares, {!Seq_check.run_sat} included: both
    graphs are copied ({!Aig.copy_into}) into one structurally hashed miter
    AIG with inputs shared by name, and the proof obligations are solved in
    one loop. *)

val check_interfaces : string -> Aig.t -> Aig.t -> string list
(** [check_interfaces who a b] returns the input names both graphs share,
    sorted.
    @raise Invalid_argument (["<who>: input interfaces differ"], or
    output) unless both graphs have the same PI and PO names. *)

val shared_input : Aig.t -> string -> Aig.lit
(** [shared_input u name] is the primary input of the miter [u] named
    [name], created on first use. *)

val copy_side :
  Aig.t ->
  Aig.t ->
  pi:(string -> string) ->
  latch:(int -> Aig.lit) ->
  (string * Aig.lit) list * (int -> Aig.lit)
(** [copy_side u g ~pi ~latch] copies all of [g] into the miter [u]
    ({!Aig.copy_into}): a PI named [x] becomes [shared_input u (pi x)] and
    latch node [n] becomes [latch n], each leaf made once, in node order.
    Returns [g]'s outputs (name, copied literal) in declaration order and
    the lookup from a latch node of [g] to its copied next-state literal.
    Every miter in this library, {!Seq_check.run_sat}'s included, is built
    through it. *)

val first_sat :
  Sat.Cnf.t -> Aig.t -> (string * Aig.lit * Aig.lit) list -> string option
(** [first_sat cnf u obligations] solves each obligation [(tag, a, b)] in
    list order as the assumption [a xor b] over [cnf] (the encoding of
    [u]) and returns the tag of the first satisfiable one, leaving its
    model in the solver. An XOR that structural hashing folds to
    {!Aig.false_} is skipped without a solver call. *)

val rtl_vs_aig :
  ?cycles:int ->
  ?runs:int ->
  ?config:(string * Bitvec.t array) list ->
  seed:int ->
  Rtl.Design.t ->
  Aig.t ->
  mismatch option
(** Compare the RTL interpreter against a lowered/optimized AIG. [config]
    binds configuration tables on the RTL side; on the AIG side the same
    contents must already be reflected (bound designs) — flexible designs
    with unbound configuration latches can only be compared with all-zero
    config. Bits are matched by {!Lower.bit_name}.
    @raise Invalid_argument naming the bit if an AIG input is not an RTL
    input bit, or an RTL output bit has no AIG output. *)
