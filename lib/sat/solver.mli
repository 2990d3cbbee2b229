(** Conflict-driven clause learning SAT solver.

    A dependency-free MiniSat-style core: two-watched-literal unit
    propagation, first-UIP conflict analysis with clause learning,
    VSIDS-style variable activities with phase saving, and Luby restarts.
    Variables are positive integers allocated by {!new_var}; literals use
    the DIMACS convention ([+v] / [-v]).

    The solver is incremental in the assumption style: clauses accumulate
    across {!solve} calls (learned clauses are kept, so related queries get
    cheaper), and each call may pin a set of assumption literals that hold
    for that call only. This is how the equivalence checker discharges one
    miter output (or one BMC frame) at a time over a single shared CNF.

    Every completed {!solve} accounts its work to the [sat.solver.*]
    {!Obs.Metrics} counters (solves, conflicts, decisions, propagations,
    learned clauses) and the [sat.solver.vars] high-water gauge, so solver
    effort shows up in metric tables alongside the synthesis passes; solve
    time is in {!stats}. *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; the first call returns 1. *)

val ok : t -> bool
(** [false] once the clause database is unsatisfiable at level 0 (an empty
    clause was added or derived); {!solve} then returns [Unsat] without
    search. *)

val add_clause : t -> int list -> unit
(** Add a clause over existing variables. Duplicate literals are merged, a
    tautological clause (contains both [v] and [-v]) is dropped, literals
    already false at level 0 are removed, and the empty clause makes the
    solver permanently {!ok}[ = false].
    @raise Invalid_argument on literal 0 or a variable never allocated. *)

type result = Sat | Unsat

val solve : ?assumptions:int list -> t -> result
(** Decide the clause database under the given assumption literals.
    [Unsat] means no model satisfies clauses + assumptions (learned clauses
    never depend on assumptions, so the database stays reusable).
    @raise Invalid_argument on an assumption over an unallocated var. *)

val model_value : t -> int -> bool
(** Value of a variable in the last [Sat] model.
    @raise Invalid_argument if the last {!solve} did not return [Sat]. *)

type stats = {
  solves : int;
  decisions : int;
  conflicts : int;
  propagations : int;  (** literals enqueued by unit propagation *)
  learned : int;  (** learned clauses recorded *)
  learned_lits : int;
  restarts : int;
  max_vars : int;
  solve_s : float;  (** cumulative wall time inside {!solve} *)
}

val stats : t -> stats
