(** Sum-of-products covers. *)

type t = { nvars : int; cubes : Cube.t list }

val make : nvars:int -> Cube.t list -> t

val num_cubes : t -> int

val literals : t -> int
(** Total literal count (the classic two-level cost). *)

val remove_subsumed : t -> t
(** Drop cubes subsumed by another cube of the cover. *)

val of_truthfn : Truthfn.t -> t
(** The minterm-by-minterm canonical cover of the ON-set. *)

val agrees : t -> Truthfn.t -> bool
(** Does this cover implement the incompletely-specified function? *)
