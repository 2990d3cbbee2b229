(** Espresso-style heuristic two-level minimization.

    Runs the classic EXPAND → IRREDUNDANT → REDUCE loop over a dense
    incompletely-specified function. Unlike {!Qm} this is polynomial per
    iteration and is the default minimizer of the synthesis flow.

    The result depends on the *initial cover* (cube and literal ordering):
    this is deliberate and models the "bumpy optimization surface" the paper
    observes — logically equivalent RTL written in different styles seeds the
    minimizer differently and lands in different local minima. *)

val expand : Truthfn.t -> Cube.t list -> Cube.t list
(** One EXPAND pass: grow each cube to a (locally) prime implicant without
    intersecting the OFF-set; drops cubes subsumed by earlier expansions. *)

val irredundant : Truthfn.t -> Cube.t list -> Cube.t list
(** Remove cubes whose ON-minterms are covered by the remaining cubes. *)

val reduce : Truthfn.t -> Cube.t list -> Cube.t list
(** Shrink each cube to the supercube of the ON-minterms only it covers
    (dropping cubes that cover nothing uniquely). *)

val minimize : ?max_iters:int -> ?initial:Cube.t list -> Truthfn.t -> Cover.t
(** Full loop. [initial] defaults to the canonical minterm cover of the
    ON-set; [max_iters] (default 3) bounds the improvement iterations.
    Nothing checks the returned cover against the function, and it can be
    wrong: {!reduce} counts each ON-minterm's covering cubes once, so two
    cubes that share a minterm can both shrink away from it and leave it
    uncovered (seen from 7 variables up). {!Truthfn.cover_agrees} checks a
    cover. *)
