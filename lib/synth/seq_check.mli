(** {!Equiv.run}'s [Bdd] engine in the result type [perfbench/] reads. *)

type result =
  | Equivalent
  | Counterexample of string  (** name of a distinguishing output *)
  | Gave_up of string

val run : ?max_vars:int -> Aig.t -> Aig.t -> result
(** [Equiv.run (Bdd { max_vars })], [max_vars] 64 by default; a refutation
    keeps only [first.output].
    @raise Invalid_argument if the interfaces differ. *)
