(** Verifying generator annotations.

    A value-set annotation is only a safe source of don't-cares if it is an
    invariant. This checker proves it by 1-induction with BDDs:

    - base: the annotated latch bits initialize inside the set;
    - step: if the vector is in the set now, it is in the set after any
      clock edge, for any values of the inputs and the *other* latches
      (which are left unconstrained — a sound over-approximation).

    [Unproved] therefore means "not provable by this argument", not
    "wrong": an annotation whose invariance depends on another register's
    behaviour lands there. No annotation the generators in this repository
    emit is [Refuted], and the FSM and one-hot ones are [Proved]; the
    Manual PCtrl's per-pipe [pipeN_state] sets are [Unproved], because
    their invariance depends on other registers
    (test/golden/symbolic.txt pins each verdict). *)

type result =
  | Proved
  | Refuted of string  (** genuinely violated, with a reason *)
  | Unproved of string (** out of reach for the method or effort caps *)

val inductive : Aig.t -> Annots.t -> result
(** Only annotations whose bits are all latch outputs can be proved;
    input-port annotations are environment assumptions and return
    [Unproved], as does a step that exceeds 96 BDD variables or 200_000
    nodes per function. *)
