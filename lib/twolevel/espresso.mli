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
(** Shrink each cube, in order, to the supercube of the ON-minterms only
    it covers (dropping cubes that cover nothing uniquely). The ON-minterms
    a cube gives up count as uncovered by it for the cubes after it, so the
    reduced cover still covers the ON-set. *)

val minimize : Truthfn.t -> Cover.t
(** Full loop from the canonical minterm cover of the ON-set, with at most
    3 improvement iterations. {!Truthfn.cover_agrees} checks a cover. *)
