(** Deterministic parallel map over OCaml 5 domains.

    Every item runs under exception isolation: a crashing item yields
    [Error (Exn _)] in its own slot and nothing else — the other items keep
    going. Results come back in input order whatever the worker count, so
    a pure [f] gives the same list at every [jobs]. *)

type error =
  | Exn of { exn : string; backtrace : string }
      (** the item raised; both strings are for reporting only *)

val error_message : error -> string

val map : jobs:int -> ('a -> 'b) -> 'a list -> ('b, error) result list
(** [map ~jobs f xs] runs [f] over [xs] on [min jobs (length xs)] workers,
    the calling domain being one of them; each worker claims the next
    unclaimed index until none is left. [jobs <= 1] spawns no domain. *)
