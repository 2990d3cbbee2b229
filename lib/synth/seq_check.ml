type result =
  | Equivalent
  | Counterexample of string
  | Gave_up of string

let run ?(max_vars = 64) a b =
  match Equiv.run (Equiv.Bdd { max_vars }) a b with
  | Equiv.Proved -> Equivalent
  | Equiv.Refuted c -> Counterexample c.first.output
  | Equiv.Undecided s -> Gave_up s
