(** State propagation and folding (the paper's Section III-B optimization).

    Given an annotation "vector y only takes values in S" on latch (or input)
    bits, this pass looks at the logic downstream of y and
    - replaces any node that is constant for every value in S (for all
      values of the other inputs) by that constant, and
    - merges nodes that are equal (or antivalent) for every value in S.

    The check is exact: each candidate node gets a BDD over the annotated
    bits and the other cone leaves, and is compared under the constraint
    [χ_S] using generalized cofactors — two functions equal on S have equal
    [constrain f χ_S], so the cofactor is a canonical class representative.

    Unlike {!Collapse}, this pass handles wide vectors (one-hot buses of
    hundreds of bits) because it never enumerates assignments; resource caps
    (64 BDD variables in total, 50_000 nodes per node's BDD) make it skip a
    node gracefully instead of blowing up, mirroring a real tool's effort
    limits. *)

val run : annots:Annots.t list -> Aig.t -> Aig.t
