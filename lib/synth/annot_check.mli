(** Verifying generator annotations.

    A value-set annotation is only a safe source of don't-cares if it is an
    invariant. This checker proves it by 1-induction with BDDs:

    - base: the annotated latch bits initialize inside the set;
    - step: if the vector is in the set now, it is in the set after any
      clock edge, for any values of the inputs and the *other* latches
      (which are left unconstrained — a sound over-approximation).

    [Unproved] therefore means "not provable by this argument", not
    "wrong": an annotation whose invariance depends on another register's
    behaviour lands there. The generators in this repository emit
    annotations that pass ([Proved]) — the tests check exactly that. *)

type result =
  | Proved
  | Refuted of string  (** genuinely violated, with a reason *)
  | Unproved of string (** out of reach for the method or effort caps *)

val inductive : Aig.t -> Annots.t -> result
(** Only annotations whose bits are all latch outputs can be proved;
    input-port annotations are environment assumptions and return
    [Unproved], as does a step that exceeds 96 BDD variables or 200_000
    nodes per function. *)
