(** The Fig. 7 example design: a one-hot decoded bus feeding redundant
    downstream logic.

    Generic form: [y = one-hot-decode(sel)], optionally registered with a
    choice of reset style; downstream, [multi = |(y & (y - 1))] (a
    more-than-one-bit-set detector — identically false when [y] is one-hot)
    selects between two data inputs: [out = multi ? alt : main]. [y] is
    also an output, so the decoder and flops are live in every variant.

    Direct form: the hand-optimized equivalent — same decoder/flops, but
    [out = main] with the detector and mux gone.

    The generic registered design carries a generator value-set annotation
    on [y] ({0} ∪ one-hot codes is not claimed — the decode is always
    one-hot here, and the register initializes to a one-hot value, so the
    annotation is exactly the one-hot set). *)

type flop_style = Comb | Flop of Rtl.Design.reset_kind

val generic : n:int -> style:flop_style -> Rtl.Design.t
val direct : n:int -> style:flop_style -> Rtl.Design.t

val paper_widths : int list
(** n ∈ {2, 4, 8, 16, 32, 64, 128}. *)

val all_styles : (string * flop_style) list
