(** Design-level partial evaluation.

    The "Auto" step of the paper: once the generator knows the microcode
    (table contents), the flexible design specializes — configuration
    memories become ROMs. Downstream, lowering + collapse fold everything
    away; no separate optimizer is needed, which is the paper's thesis. *)

val bind_tables : Rtl.Design.t -> (string * Bitvec.t array) list -> Rtl.Design.t
(** Replace the storage of the named (typically [Config]) tables.
    @raise Invalid_argument on geometry mismatch, [Not_found] on unknown
    table. *)

val bind_aig_tables : Aig.t -> (string * Bitvec.t array) list -> Aig.t
(** AIG-level specialization: rebuild the graph with every configuration
    latch of the named tables (Lower's ["<table>[entry][bit]"] naming)
    replaced by its constant; structural hashing folds the table-read mux
    trees on the fly. The result has only functional latches, so it can be
    checked against a lowered pre-bound design by register-correspondence
    induction ({!Equiv.run} with the [Sat] engine) — the paper's
    specialization claim as a provable statement.
    @raise Invalid_argument if a bound bit has no matching config latch. *)
