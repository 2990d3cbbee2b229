(** Dense incompletely-specified single-output boolean functions.

    A function over [nvars] inputs stores one of {!value} for each of the
    [2^nvars] input assignments. Assignments are integers whose bit [i] is
    the value of variable [i]. Mutable by design: these are scratch objects
    inside minimization. *)

type value = Off | On | Dc

type t

val create : nvars:int -> value -> t
(** Constant function. @raise Invalid_argument if [nvars < 0 || nvars > 16]. *)

val nvars : t -> int
val size : t -> int
(** [2^nvars]. *)

val get : t -> int -> value
val set : t -> int -> value -> unit

val of_fun : nvars:int -> (int -> value) -> t

val on_set : t -> int list
val dc_set : t -> int list

val cube_within : t -> Cube.t -> bool
(** Is every minterm of the cube ON or DC (i.e. does the cube avoid the
    OFF-set)? *)

val cover_agrees : t -> Cube.t list -> bool
(** Does the cover evaluate to true on every ON minterm and false on every
    OFF minterm (DC minterms unconstrained)? *)
