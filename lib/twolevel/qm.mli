(** Quine–McCluskey exact two-level minimization.

    Exponential in the worst case; intended for functions of at most ~10
    variables (ablation A2 compares it against {!Espresso}). *)

val minimize : Truthfn.t -> Cover.t
(** Prime generation followed by exact (minimum-cube) covering. If the
    exact search exceeds its node budget, greedy selection (essential
    primes, then most-coverage first) picks the cover instead. *)
