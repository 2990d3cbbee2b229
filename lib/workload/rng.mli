(** Deterministic, splittable random source for workload generation.

    Replaces the paper's Python scripts: every random design is a pure
    function of an integer seed, so sweeps are reproducible and
    paper-figure regeneration is stable across runs. *)

type t

val make : int -> t

val split : t -> string -> t
(** An independent stream derived from a name — children with different
    names (or parents) never share state. *)

val int : t -> int -> int
(** [int t bound] — uniform in [0, bound). *)

val bool : t -> bool

val bitvec : t -> width:int -> Bitvec.t

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on an empty list. *)

val subset : t -> size:int -> 'a list -> 'a list
(** A random subset of at most [size] distinct elements, in draw order;
    empty when [size <= 0]. Elements are compared structurally, so
    duplicates in the list count once. *)

val mutate_bindings :
  seed:int ->
  (string * Bitvec.t array) list ->
  (string * Bitvec.t array) list * string
(** Flip one seeded-random bit of one entry of one configuration table.
    Returns the perturbed bindings and the flipped site as
    ["<table> entry <e> bit <b>"], so a seeded mutation is reproducible
    and reportable. *)
