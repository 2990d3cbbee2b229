(** Cubes (product terms) over up to 30 boolean variables.

    A cube is a conjunction of literals. It is stored as a pair of integer
    bit masks: [mask] has bit [i] set when variable [i] appears as a literal,
    and [value] gives the polarity of each cared literal ([value] is kept
    zero outside [mask], so cubes compare structurally). *)

type t = private { mask : int; value : int }

val make : mask:int -> value:int -> t
(** Canonicalizes [value] onto [mask]. @raise Invalid_argument if a mask bit
    index 30 or above is set. *)

val top : t
(** The universal cube (no literals, covers everything). *)

val of_minterm : nvars:int -> int -> t
(** Full cube for one input assignment. *)

val num_literals : t -> int

val free_vars : nvars:int -> t -> int list
(** Variables not constrained by the cube, ascending. *)

val covers_minterm : t -> int -> bool
(** [covers_minterm c m] — does assignment [m] (bit [i] = variable [i])
    satisfy the cube? *)

val subsumes : t -> t -> bool
(** [subsumes c d] — is every minterm of [d] covered by [c]? *)

val combine : t -> t -> t option
(** Quine–McCluskey merge: if the cubes care about the same variables and
    differ in exactly one of them, the merged cube (with that variable freed);
    otherwise [None]. *)

val drop_var : t -> int -> t
(** Remove variable [i] from the cube's literals (no-op if absent). *)

val has_literal : t -> int -> bool
val literal_value : t -> int -> bool
(** @raise Invalid_argument if the literal is absent. *)

val minterms : nvars:int -> t -> int Seq.t
(** All assignments covered by the cube over [nvars] variables, in
    increasing order. *)

val iter_minterms : nvars:int -> (int -> unit) -> t -> unit
(** Allocation-free enumeration of the covered assignments, in the order
    of {!minterms} (hot path of the minimizers). *)

val exists_minterm : nvars:int -> (int -> bool) -> t -> bool
(** Early-exit search over the covered assignments, in the order of
    {!minterms}. *)

val compare : t -> t -> int
