(** The one AIG→BDD layer.

    {!Reach}, {!Annot_check}, {!Seq_check} and {!Stateprop} build every BDD
    through this module, so variable numbering, effort budgets, the
    transition relation and the image step exist once.

    Variable-order contract (the BDD order is the integer order):
    - pre-bound keys of a {!Vars} numbering come first, in the order given;
      fresh variables follow from the caller's [first], in the order the
      converter meets the leaves;
    - {!converter} builds an AND as [Bdd.and_ (lit f0) (lit f1)], and OCaml
      evaluates the arguments right to left, so f1's cone is numbered
      before f0's;
    - a {!machine} with [k] state bits uses [0..k-1] for the current state
      and [k..2k-1] for the next state; inputs sit above [2k].

    Counters [synth.symbolic.image_steps] and [synth.symbolic.overflow]
    record the image steps taken and the budgets this module found
    exceeded. *)

exception Overflow
(** An effort budget was exceeded: too many variables, a BDD over its node
    budget, or a fixpoint over its iteration budget. *)

(** Numbering of converter leaves as BDD variables. *)
module Vars : sig
  type 'a t

  val create : max_vars:int -> first:int -> 'a array -> 'a t
  (** [create ~max_vars ~first bound] numbers [bound.(i)] as variable [i]
      (these never count against the cap) and hands out fresh variables
      from [first] on. *)

  val var : 'a t -> 'a -> int
  (** The key's variable; a new key gets the next fresh one.
      @raise Overflow when that would be variable [max_vars]. *)

  val fresh : 'a t -> int list
  (** The fresh variables handed out so far, ascending. *)
end

val converter :
  Bdd.man -> max_bdd:int -> leaf:(int -> int) -> Aig.t -> Aig.lit -> Bdd.t
(** [converter man ~max_bdd ~leaf g] is a memoized literal→BDD function
    over [g]: a PI or latch node [n] becomes [Bdd.var man (leaf n)].
    @raise Overflow when an AND's BDD has more than [max_bdd] nodes, or
    when [leaf] raises it. A node that raised once, directly or through a
    fanin, raises again without being recomputed. *)

type machine

val machine :
  Bdd.man ->
  max_bdd:int ->
  next:Bdd.t array ->
  init:bool array ->
  inputs:int list ->
  machine
(** The monolithic transition relation [∧ᵢ (v_{k+i} ↔ next.(i))] over
    [k = Array.length next] state bits, started in the single state
    [init]. [inputs] are the variables besides the current state that an
    image step quantifies away: read {!Vars.fresh} only after [next] is
    converted.
    @raise Overflow when the relation has more than [max_bdd] nodes. *)

val reach : ?visit:(Bdd.t -> unit) -> max_iters:int -> machine -> Bdd.t * int
(** Least fixpoint of [R = init ∨ image R] over the current-state
    variables, with the number of image steps that added states. [visit]
    sees every iterate before its image is taken and may stop the
    computation by raising.
    @raise Overflow when more than [max_iters] steps add states. *)
