(** Reduced ordered binary decision diagrams.

    Nodes are hash-consed inside a manager, so two BDDs built in the same
    manager represent the same boolean function if and only if they are
    physically equal ({!equal} is O(1)). Variables are non-negative integers;
    the variable order is the integer order (variable 0 is the topmost).

    The package is deliberately simple — no dynamic reordering, no complement
    edges — and is sized for the cone widths this project needs (couple of
    dozen variables). *)

type man
(** A BDD manager: unique table plus operation caches. *)

type t
(** A BDD rooted in some manager. Mixing BDDs from different managers in one
    operation raises [Invalid_argument]. *)

val make_man : unit -> man

(** {1 Constants and variables} *)

val zero : man -> t
val one : man -> t

val var : man -> int -> t
(** [var m i] is the function of variable [i]. @raise Invalid_argument if
    [i < 0]. *)

val nvar : man -> int -> t
(** Negation of {!var}. *)

(** {1 Boolean operations} *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val imp : t -> t -> t
val iff : t -> t -> t
val ite : t -> t -> t -> t

(** {1 Structure} *)

val equal : t -> t -> bool

val uid : t -> int
(** Stable identifier of the root node within its manager: [uid a = uid b]
    iff [equal a b]. Usable as a hash-table key. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_const : t -> bool

val top_var : t -> int
(** @raise Invalid_argument on a constant. *)

val cofactor : t -> int -> bool -> t
(** [cofactor f v b] is f with variable [v] fixed to [b]. *)

val constrain : t -> t -> t
(** [constrain f c] is the generalized cofactor f ⇓ c: a function that agrees
    with [f] wherever [c] holds (and is typically smaller). One memoized
    pass, linear in the sizes of [f] and [c].
    @raise Invalid_argument if [c] is the zero function. *)

val exists : int list -> t -> t
(** Existential quantification over the listed variables. *)

val and_exists : int list -> t -> t -> t
(** [and_exists vars f g] is [exists vars (and_ f g)], computed in one
    memoized pass (the relational product) that never builds [and_ f g].
    @raise Invalid_argument on a negative variable. *)

val forall : int list -> t -> t

val support : t -> int list
(** Variables the function actually depends on, ascending. *)

val rename : t -> (int -> int) -> t
(** [rename f map] substitutes variable [map v] for every variable [v]. The
    mapping must be strictly monotonic on the support of [f] (so the order is
    preserved); raises [Invalid_argument] otherwise. *)

(** {1 Satisfiability and evaluation} *)

val eval : t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val sat_count : t -> nvars:int -> float
(** Number of satisfying assignments over variables [0 .. nvars-1]. All
    support variables must be below [nvars]. *)

val sat_seq : t -> nvars:int -> Bitvec.t Seq.t
(** All satisfying assignments as bit vectors of width [nvars] (bit [i] is
    variable [i]). Intended for small [nvars]. *)

(** {1 Building from semantics} *)

val of_minterms : man -> nvars:int -> Bitvec.t list -> t
(** Characteristic function of a set of assignments: [of_minterms m ~nvars vs]
    is true exactly on the listed vectors (bit [i] of a vector gives the value
    of variable [i]). All vectors must have width [nvars]. *)

val of_fun : man -> nvars:int -> (Bitvec.t -> bool) -> t
(** Build by full enumeration of [2^nvars] assignments (small [nvars] only;
    @raise Invalid_argument if [nvars > 20]). *)

val size : t -> int
(** Number of distinct internal nodes of this BDD. *)
