(** Bit-level view of design annotations.

    After lowering, an RTL value-set annotation on signal [s] becomes a
    vector of AIG leaf nodes (latch or PI bits) plus the list of allowed
    values. The optimization passes consume this form. *)

type t = {
  base : string;  (** annotated signal name *)
  nodes : int array;  (** AIG node per bit, LSB first *)
  values : Bitvec.t list;
  provenance : Rtl.Annot.provenance;
  on_state : bool;  (** true when every bit is a latch output *)
}

val extract : Lower.t -> t list
(** All annotations whose target lowered to plain PI/latch bits (annotations
    on intermediate nets carry no extra information for the optimizer — the
    logic implies them — and are skipped). *)

val honored : generator:bool -> width_cap:int -> t list -> t list
(** Filter by provenance and by the tool's annotation width limit (the
    paper's n ≤ 32 cliff). Tool-detected annotations always pass the
    provenance filter; generator-supplied ones only when [generator]. *)

val width : t -> int

val member_table : t -> (int, unit) Hashtbl.t
(** Allowed values as an int set (widths ≤ 30 only; raises otherwise).
    Used by the dense-window collapse. *)

val relocate : Aig.t -> t -> t option
(** Re-resolve the annotation's bit nodes by name (["base[i]"]) in another
    AIG — passes rebuild graphs but preserve latch/PI names. [None] when a
    bit no longer exists (e.g. swept away), in which case the annotation is
    simply dropped. *)
