(** Figure 8: state propagation and folding across flop boundaries.

    Synthesizes the {!Onehot_design} family over bus width, flop style and
    flow variant, comparing generic vs direct area. Claims to reproduce:
    - purely combinational versions always reach the ideal (the optimizer
      sees the decoder and the consumer in one cone);
    - with flops, the regular flow never reaches the ideal (no state
      propagation across registers);
    - retiming recovers the ideal only for some flop styles (here: only
      reset-free flops are legal to move);
    - the manual annotation recovers the ideal for n ≤ 32 (the flow's
      annotation width cap — the paper's observed cliff). *)

type variant = Regular | Retimed | Annotated

type row = {
  n : int;
  style_name : string;
  variant : variant;
  generic_area : (float, string) result;
  direct_area : (float, string) result;
      (** [Error message] when that compile failed; the sweep keeps going
          and the engine records the failure ({!Engine.failures}). *)
}

val run : ?widths:int list -> Engine.t -> row list

val print : Format.formatter -> row list -> unit

val variant_name : variant -> string
