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

val is_on : t -> int -> bool
(** Is the function ON at this assignment? *)

val set : t -> int -> value -> unit

val of_fun : nvars:int -> (int -> value) -> t

val of_codes : nvars:int -> Bytes.t -> t
(** The function whose value on assignment [m] is byte [m]: ['\000'] Off,
    ['\001'] On, ['\002'] Dc. Adopts the bytes without copying, so the
    caller must not mutate them while the function is in use.
    @raise Invalid_argument if [nvars] is out of range or the length is
    not [2^nvars]. *)

val on_set : t -> int list
val dc_set : t -> int list

val cube_within : t -> Cube.t -> bool
(** Is every minterm of the cube ON or DC (i.e. does the cube avoid the
    OFF-set)? *)

val cover_agrees : t -> Cube.t list -> bool
(** Does the cover evaluate to true on every ON minterm and false on every
    OFF minterm (DC minterms unconstrained)? *)
