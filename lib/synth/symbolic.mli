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
    - callers of {!machine} with [k] state bits number the current state
      [0..k-1] and inputs from [2k]; reach sets and iterates use the same
      numbering. Inside the machine current bit [i] becomes variable [2i]
      and its next state [2i+1] (inputs keep their numbers), so each bit
      sits next to its successor in the order.

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

val value_set :
  Bdd.man -> bit:(int -> bool -> Bdd.t) -> Bitvec.t list -> Bdd.t
(** [value_set man ~bit values] is the OR over [values] of the AND over
    each value's bits, low bit first, of [bit i b] — the BDD for "bit [i]
    is [b]". Values are visited in list order and [bit] is called once per
    bit in that order, so a [bit] that numbers variables on first use
    numbers them the same way on every caller. *)

type machine

val machine :
  Bdd.man ->
  max_bdd:int ->
  next:Bdd.t array ->
  init:bool array ->
  inputs:int list ->
  machine
(** A machine with [k = Array.length next] state bits, started in the
    single state [init]. [next.(i)] may depend on the current state
    [0..k-1] and on [inputs], the variables (from [2k]) that an image step
    quantifies away: read {!Vars.fresh} only after [next] is converted.
    The transition relation is kept partitioned, one [v_{2i+1} ↔ next.(i)]
    per bit, and is built at the first image step. An image step conjoins
    the partitions into the current set one at a time with
    {!Bdd.and_exists}, quantifying each variable right after the last
    partition that mentions it; [max_bdd] bounds every such partial
    product. *)

val reach : ?visit:(Bdd.t -> unit) -> max_iters:int -> machine -> Bdd.t * int
(** Least fixpoint of [R = init ∨ image R] over the current-state
    variables, with the number of image steps that added states. Each step
    takes the image of the states the previous step added only. [visit]
    sees every iterate before its image is taken, the initial state before
    any relation is built, and may stop the computation by raising.
    @raise Overflow when more than [max_iters] steps add states, or when
    a partial product of an image step has more than [max_bdd] nodes. *)
