(** Named, width-carrying signals. Names are unique within a design and act
    as the signal identity everywhere (annotations, evaluation, lowering).
    Private: {!make} is the only way to build one. *)

type t = private { name : string; width : int }

val is_atom : string -> bool
(** The one rule for every name in a design: not empty, and free of
    whitespace, [(], [)] and [;], so {!Serialize} reads it back as itself. *)

val make : string -> int -> t
(** @raise Invalid_argument if the width is not positive or the name is
    not {!is_atom}. *)
