(** Tseitin CNF encoding of {!Aig} combinational logic.

    Maps AIG nodes to solver variables on demand: requesting the solver
    literal of an AIG literal encodes exactly the transitive fan-in cone of
    that literal (one variable and three clauses per AND gate), memoized,
    so repeated queries over a growing graph — the incremental BMC
    unrolling — only ever pay for new nodes. The AIG's structural hashing
    has already performed constant folding and sharing; what remains of a
    constant node is a single unit-forced variable, which the solver's
    level-0 propagation then specializes the clause database against. *)

type t

val create : Solver.t -> Aig.t -> t
(** The graph may keep growing after [create]; new nodes are encoded when
    first requested. *)

val lit : t -> Aig.lit -> int
(** Solver literal for an AIG literal, encoding its cone on demand. *)

val var_of_node : t -> int -> int option
(** The solver variable already allocated for an AIG node, if its cone was
    encoded — the model-extraction read path ([None] means the node was
    irrelevant to every query, hence unconstrained). *)

val solver : t -> Solver.t
