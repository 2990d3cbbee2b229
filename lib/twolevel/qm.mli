(** Quine–McCluskey exact two-level minimization.

    Exponential in the worst case; intended for functions of at most ~10
    variables (ablation A2 compares it against {!Espresso}). *)

val minimize : ?exact:bool -> Truthfn.t -> Cover.t
(** Prime generation followed by covering; [exact] defaults to [false]
    (greedy). Falls back to greedy if exact search exceeds its limit. *)
