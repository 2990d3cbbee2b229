(** Named, width-carrying signals. Names are unique within a design and act
    as the signal identity everywhere (annotations, evaluation, lowering). *)

type t = { name : string; width : int }

val make : string -> int -> t
(** @raise Invalid_argument if the width is not positive or the name empty. *)
