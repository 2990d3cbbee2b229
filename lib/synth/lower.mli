(** RTL → AIG elaboration (bit blasting).

    Every named RTL signal maps to a vector of AIG literals (bit 0 first),
    retrievable from the result — annotations and debugging hang off this
    map. Naming convention for the bit-level objects: input/register/output
    bit [i] of signal [s] is ["s[i]"] ({!bit_name}); bit [b] of entry [e]
    of configuration table [t] is ["t[e][b]"] ({!config_bit_name}). Other
    modules that look bits up by name call these two functions rather than
    spell the convention themselves.

    Elaboration choices that matter to the experiments:
    - ROM reads become mux trees over the address bits with constant leaves;
      structural hashing folds them, which is exactly the paper's *constant
      propagation and folding* of table logic.
    - Configuration tables become one hold-latch per bit (marked
      [is_config]) plus the same mux tree reading latch outputs: the area
      cost of runtime flexibility.
    - Register enables fold into a data-side mux; reset style stays a latch
      attribute (it selects the flop cell at mapping time, as in Fig. 8).
    - Out-of-range table reads (non-power-of-two depth) produce zero,
      matching {!Rtl.Eval}. *)

type t = {
  aig : Aig.t;
  signals : (string, Aig.lit array) Hashtbl.t;
  design : Rtl.Design.t;
}

val run : Rtl.Design.t -> t

val bit_name : string -> int -> string
(** [bit_name s i] is ["s[i]"]: the PI, latch or PO of bit [i] of signal
    [s]. *)

val config_bit_name : string -> int -> int -> string
(** [config_bit_name t e b] is ["t[e][b]"]: the configuration latch of bit
    [b] of entry [e] of table [t]. *)
